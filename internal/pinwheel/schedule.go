package pinwheel

import (
	"fmt"
	"math"
	"strings"

	"pinbcast/internal/bcerr"
)

// Idle marks a slot in which the resource is left unallocated,
// rendered as ⊔ in the paper's examples.
const Idle = -1

// Schedule is a cyclic schedule: slot t of the infinite schedule is
// Slots[t mod Period]. Each entry is a task index into the System the
// schedule was built for, or Idle.
type Schedule struct {
	Period int
	Slots  []int
	// Origin records which scheduler produced the schedule, for
	// diagnostics and experiment tables.
	Origin string
}

// NewSchedule wraps a slot assignment in a Schedule.
func NewSchedule(slots []int, origin string) *Schedule {
	return &Schedule{Period: len(slots), Slots: slots, Origin: origin}
}

// Grants returns the slot offsets within one period at which task i is
// scheduled, in increasing order.
func (s *Schedule) Grants(i int) []int {
	var g []int
	for t, v := range s.Slots {
		if v == i {
			g = append(g, t)
		}
	}
	return g
}

// GrantCount returns how many slots per period are allocated to task i.
func (s *Schedule) GrantCount(i int) int { return len(s.Grants(i)) }

// Utilization returns the fraction of non-idle slots per period.
func (s *Schedule) Utilization() float64 {
	busy := 0
	for _, v := range s.Slots {
		if v != Idle {
			busy++
		}
	}
	return float64(busy) / float64(s.Period)
}

// String renders one period like the paper's examples:
// "1, 2, 1, ⊔, 2, …". Task indices are printed 1-based to match the
// paper's notation.
func (s *Schedule) String() string {
	parts := make([]string, len(s.Slots))
	for i, v := range s.Slots {
		if v == Idle {
			parts[i] = "⊔"
		} else {
			parts[i] = fmt.Sprintf("%d", v+1)
		}
	}
	return strings.Join(parts, ", ")
}

// Verify checks that the cyclic schedule satisfies every task of the
// system: each task i must appear in at least sys[i].A slots of every
// window of sys[i].B consecutive slots of the infinite schedule. Windows
// are checked cyclically, which covers all windows of the infinite
// repetition. It also checks that no slot index is out of range. The
// cost is O(period + tasks): one pass builds the per-task grant lists,
// then CheckWindows walks each list once.
func (s *Schedule) Verify(sys System) error {
	if s.Period < 1 || len(s.Slots) != s.Period {
		return fmt.Errorf("pinwheel: malformed schedule (period %d, %d slots)", s.Period, len(s.Slots))
	}
	grants, _, err := IndexSlots(s.Slots, len(sys))
	if err != nil {
		return fmt.Errorf("pinwheel: %w", err)
	}
	for i, task := range sys {
		if err := CheckWindows(grants[i], s.Period, task.A, task.B); err != nil {
			return fmt.Errorf("pinwheel: task %d %s: %w", i, task, err)
		}
	}
	return nil
}

// IndexSlots builds the sparse occurrence index of one period of a
// cyclic slot assignment over n entries (tasks, or files): occ[i] holds
// the ascending slot offsets given to entry i — sub-slices of one slab,
// so the whole index takes O(period) memory — and rank[t] is the
// position of slot t in its entry's list (0 for an idle slot). A slot
// naming an entry outside [0, n) is an error; a period beyond the
// 32-bit offsets wraps ErrBadSpec.
func IndexSlots(slots []int, n int) (occ [][]int32, rank []int32, err error) {
	if len(slots) > math.MaxInt32 {
		return nil, nil, fmt.Errorf("period %d exceeds the 32-bit slot index: %w", len(slots), bcerr.ErrBadSpec)
	}
	count := make([]int32, n)
	for t, v := range slots {
		if v == Idle {
			continue
		}
		if v < 0 || v >= n {
			return nil, nil, fmt.Errorf("slot %d assigns unknown index %d", t, v)
		}
		count[v]++
	}
	slab := make([]int32, len(slots))
	occ = make([][]int32, n)
	for i, c := range count {
		occ[i], slab = slab[:0:c], slab[c:]
	}
	rank = make([]int32, len(slots))
	for t, v := range slots {
		if v != Idle {
			rank[t] = int32(len(occ[v]))
			occ[v] = append(occ[v], int32(t))
		}
	}
	return occ, rank, nil
}

// CheckWindows verifies that every cyclic window of `window` slots of a
// schedule of the given period holds at least need of the occurrences
// in occ (ascending offsets within one period). The sparsest window
// always opens just after an occurrence — sliding a window's start back
// over a slot that is not one can only lose an occurrence at the far
// end — so it suffices to check, per occurrence k, that the need-th
// next occurrence lies inside the window opened after k: O(len(occ)),
// not one count per start slot. The error names one violating window;
// any is a valid witness, and which one is unspecified. A window beyond
// the 32-bit slot index wraps ErrBadSpec.
func CheckWindows(occ []int32, period, need, window int) error {
	if period < 1 || window > math.MaxInt32 {
		return fmt.Errorf("period %d, window %d outside the 32-bit slot index: %w", period, window, bcerr.ErrBadSpec)
	}
	// Every window holds c occurrences per full period it spans; the
	// partial period of rem < period slots must supply the other q.
	c := len(occ)
	rem, q := window%period, need-window/period*c
	if q <= 0 {
		return nil
	}
	short := func(start int) error {
		return fmt.Errorf("fewer than %d in the %d-slot window at slot %d", need, window, start)
	}
	if c == 0 {
		return short(0)
	}
	for k, at := range occ {
		// The q-th occurrence after k must come within rem slots. The
		// c-th is k itself one period on, so q ≥ c never fits — decided
		// without reading past the list.
		j, wrap := k+q, 0
		if j >= c {
			j, wrap = j-c, period
		}
		if q >= c || int(occ[j])+wrap-int(at) > rem {
			return short((int(at) + 1) % period)
		}
	}
	return nil
}

// MaxGap returns, for task i, the maximum distance between consecutive
// grants in the infinite schedule (cyclically). For a file on a
// broadcast disk this is δ of Lemma 2: the worst-case wait for the next
// block of the file. Returns 0 if the task is never scheduled.
func (s *Schedule) MaxGap(i int) int {
	g := s.Grants(i)
	if len(g) == 0 {
		return 0
	}
	max := g[0] + s.Period - g[len(g)-1] // wrap-around gap
	for j := 1; j < len(g); j++ {
		if d := g[j] - g[j-1]; d > max {
			max = d
		}
	}
	return max
}
