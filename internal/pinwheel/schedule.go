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
	// Occ and Rank are the occurrence index of Slots (IndexSlots) that
	// the last successful Verify built, so that a program built from a
	// verified schedule need not index it again; nil before then. They
	// go stale if Slots changes.
	Occ  [][]int32
	Rank []int32
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
// window of sys[i].B consecutive slots of the infinite schedule, and in
// A + j of every Later[j−1] slots for each of its later levels. Windows
// are checked cyclically, which covers all windows of the infinite
// repetition. It also checks that no slot index is out of range. The
// cost is O(period + tasks): one pass builds the per-task grant lists,
// then CheckWindows walks each list once a window. On success the lists
// are kept in Occ and Rank.
func (s *Schedule) Verify(sys System) error {
	if s.Period < 1 || len(s.Slots) != s.Period {
		return fmt.Errorf("pinwheel: malformed schedule (period %d, %d slots)", s.Period, len(s.Slots))
	}
	grants, rank, err := IndexSlots(s.Slots, len(sys))
	if err != nil {
		return fmt.Errorf("pinwheel: %w", err)
	}
	for i, task := range sys {
		err := CheckWindows(grants[i], s.Period, task.A, task.B)
		for j := 0; err == nil && j < len(task.Later); j++ {
			err = CheckWindows(grants[i], s.Period, task.A+j+1, task.Later[j])
		}
		if err != nil {
			return fmt.Errorf("pinwheel: task %d %s: %w", i, task, err)
		}
	}
	s.Occ, s.Rank = grants, rank
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
// end — so it passes when no start waits longer than the window for its
// need-th occurrence, the worst of Latencies: O(len(occ)), not one count
// per start slot. The error names one violating window. A window beyond
// the 32-bit slot index wraps ErrBadSpec.
func CheckWindows(occ []int32, period, need, window int) error {
	if period < 1 || window > math.MaxInt32 {
		return fmt.Errorf("period %d, window %d outside the 32-bit slot index: %w", period, window, bcerr.ErrBadSpec)
	}
	if need <= 0 {
		return nil
	}
	short := func(start int) error {
		return fmt.Errorf("fewer than %d in the %d-slot window at slot %d", need, window, start)
	}
	// No window holds more occurrences than slots; refusing need >
	// window here also bounds Latencies' laps by the 32-bit window.
	if len(occ) == 0 || need > window {
		return short(0)
	}
	if _, worst := Latencies(occ, period, need, 0, len(occ)); worst <= window {
		return nil
	}
	// Some gap holds a start that waits too long; the worst start of
	// the gap before occurrence k is the slot after occurrence k−1.
	k := 0
	for ; k < len(occ)-1; k++ {
		if _, worst := Latencies(occ, period, need, k, 1); worst > window {
			break
		}
	}
	return short((int(occ[(k+len(occ)-1)%len(occ)]) + 1) % period)
}

// Latencies is the one place that goes from an occurrence to the
// need-th after it: the pinwheel window condition (§3), a retrieval
// completing on its M-th distinct block (§2.3, Lemma 2) and the
// recurrence of one rotated block (Lemma 1) are all this distance. occ
// holds an entry's offsets in one period, ascending. A start in the gap
// before occurrence k — after k−1, through k — is served by occurrence
// k+need−1, laps included. Over occurrences lo … lo+n−1 (cyclic; lo ≥
// −len(occ), need ≥ 0) it returns the sum of those starts' waits, each
// through its serving slot, and the largest: occurrence k+need−1 less
// occurrence k−1. With need 1 the largest is the longest gap, δ.
func Latencies[T int32 | int](occ []T, period, need, lo, n int) (total, worst int) {
	c := len(occ)
	// k is the occurrence, before the offset of the one preceding it (a
	// period back across the lap), last the one that serves a start
	// before k, wrap how many slots of laps lie between k and last.
	k := (lo + c) % c
	before, last := int(occ[(k+c-1)%c]), k+need-1+c
	if k == 0 {
		before -= period
	}
	wrap := (last/c - 1) * period
	last %= c
	twice := 0
	for ; n > 0; n-- {
		at := int(occ[k])
		gap, done := at-before, int(occ[last])-at+wrap
		twice += gap * (2*done + gap + 1)
		worst = max(worst, done+gap)
		if before, k = at, k+1; k == c {
			k, wrap, before = 0, wrap-period, before-period
		}
		if last++; last == c {
			last, wrap = 0, wrap+period
		}
	}
	return twice / 2, worst
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
	_, worst := Latencies(g, s.Period, 1, 0, len(g))
	return worst
}
