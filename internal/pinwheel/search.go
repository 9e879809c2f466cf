package pinwheel

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// This file implements the one walk over urgency states that EDF takes
// greedily and the exact search takes with backtracking.
//
// For a task (a, b) with grant times g₁ < g₂ < …, the window condition
// "at least a grants in every b consecutive slots" is equivalent to
// g_{j+a} ≤ g_j + b for all j (taking virtual grants at negative times
// for the start-up transient), so the next grant is due by the a-th most
// recent grant + b, and a task with levels by the earliest (a + j)-th
// most recent grant + b_j. A state holds every task's last a +
// len(Later) grant ages; they fully determine the future and take
// finitely many values, so a walk that misses no deadline enters some
// state twice, and the slots between are a cyclic schedule.
//
// EDF grants each slot to the earliest deadline, ties to the lower
// index. It is not optimal for pinwheel systems, so its failure proves
// nothing — but on realistic instances it succeeds well past the 7/10
// density bound, and Solve verifies every schedule it returns.
//
// The exact search tries, depth first, every task in index order and
// then an idle slot. A state with a missed deadline, with two tasks due
// now, or with only dead successors is dead; a choice back into a state
// on the current path closes a cycle (a "lasso"), and a dead start state
// proves the system infeasible. The cost is exponential in the number
// of tasks, so exact runs below a state budget; it is the ground truth
// the tests use (e.g. the infeasible three-task system of Example 1).

const (
	edfMaxSlots    = 1 << 20 // the portfolio's simulation horizon for EDF
	exactMaxStates = 1 << 19 // the portfolio's state budget for exact
	dead           = -1      // walk.entered's mark on a state exact proved dead
)

// walk is a path from the saturated start state through the urgency-state
// graph. The current slot is len(slots).
type walk struct {
	sys     System
	last    [][]int        // last[i]: task i's last A + len(Later) grant times, most recent first
	slots   []int          // the choice, a task or Idle, taken in each slot so far
	entered map[string]int // each state reached: the slot it was entered at, or dead
	key     []byte         // enter's buffer for the state's key
}

// newWalk starts at the saturated state: every task as if it had just
// been served continuously, its history the virtual grants −1, −2, ….
func newWalk(s System) *walk {
	w := &walk{sys: s, last: make([][]int, len(s)), entered: make(map[string]int)}
	total := 0
	for _, t := range s {
		total += t.A + len(t.Later)
	}
	hist := make([]int, total)
	for i, t := range s {
		n := t.A + len(t.Later)
		h := hist[:n:n]
		hist = hist[n:]
		for j := range h {
			h[j] = -(j + 1)
		}
		w.last[i] = h
	}
	return w
}

// enter looks up the state the walk is in, keyed by every grant's age,
// task by task. One reached before reports the slot it was entered at,
// or dead; a new one is recorded as entered now, and its key returned.
func (w *walk) enter() (key string, at int, seen bool) {
	at, w.key = len(w.slots), w.key[:0]
	for _, h := range w.last {
		for _, g := range h {
			w.key = binary.AppendUvarint(w.key, uint64(at-g))
		}
	}
	if at, ok := w.entered[string(w.key)]; ok {
		return "", at, true
	}
	key = string(w.key)
	w.entered[key] = at
	return key, at, false
}

// scan returns the earliest deadline in the current state, the lowest
// task index holding it, and how many tasks share it.
func (w *walk) scan() (pick, due, ties int) {
	due = math.MaxInt
	for i, h := range w.last {
		t := &w.sys[i]
		d := h[t.A-1] + t.B
		for j, b := range t.Later {
			d = min(d, h[t.A+j]+b)
		}
		switch {
		case d < due:
			pick, due, ties = i, d, 1
		case d == due:
			ties++
		}
	}
	return pick, due, ties
}

// grant takes choice c, a task or Idle, in the current slot and returns
// the grant time it pushed out of the task's history.
func (w *walk) grant(c int) (dropped int) {
	if c != Idle {
		h := w.last[c]
		dropped = h[len(h)-1]
		copy(h[1:], h)
		h[0] = len(w.slots)
	}
	w.slots = append(w.slots, c)
	return dropped
}

// undo takes back the last slot's choice, restoring the grant time that
// choice's grant dropped.
func (w *walk) undo(dropped int) {
	c := w.slots[len(w.slots)-1]
	w.slots = w.slots[:len(w.slots)-1]
	if c != Idle {
		h := w.last[c]
		copy(h, h[1:])
		h[len(h)-1] = dropped
	}
}

// cycle returns the slots since at, where the walk entered its state.
func (w *walk) cycle(at int, origin string) *Schedule {
	return NewSchedule(slices.Clone(w.slots[at:]), origin)
}

// edf schedules the system by greedy earliest-deadline-first simulation,
// returning the periodic part once the urgency state repeats within
// maxSlots slots.
func edf(s System, maxSlots int) (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := newWalk(s)
	for t := 0; t < maxSlots; t++ {
		if _, at, seen := w.enter(); seen {
			return w.cycle(at, "EDF"), nil
		}
		pick, due, _ := w.scan()
		if due < t {
			return nil, fmt.Errorf("%w: EDF missed a deadline of task %d at slot %d", ErrSchedulerFailed, pick, t)
		}
		w.grant(pick)
	}
	return nil, fmt.Errorf("%w: no cycle within %d slots", ErrTooLarge, maxSlots)
}

// frame is a state on the exact search's path.
type frame struct {
	key        string
	at         int // the slot it was entered at
	next, last int // its untried choices, tasks by index and len(sys) for Idle
	dropped    int // what the choice taken from it pushed out
}

// exact decides schedulability by exhaustive search. It returns a
// schedule when the system is schedulable, ErrInfeasible when it
// provably is not, and ErrTooLarge when the state budget of maxStates
// is exhausted before an answer is found.
func exact(s System, maxStates int) (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Density() > 1.0+1e-12 {
		return nil, fmt.Errorf("%w: density %.4f > 1", ErrInfeasible, s.Density())
	}
	w := newWalk(s)
	var path []frame
	for {
		key, at, seen := w.enter()
		switch {
		case seen && at != dead:
			return w.cycle(at, "Exact"), nil
		case !seen:
			if len(w.entered) > maxStates {
				return nil, fmt.Errorf("%w: exact search exceeded %d states", ErrTooLarge, maxStates)
			}
			f := frame{key: key, at: at, last: len(s)}
			switch pick, due, ties := w.scan(); {
			case due < at || due == at && ties > 1:
				f.next = f.last + 1 // a deadline missed or unavoidable: no choice
			case due == at:
				f.next, f.last = pick, pick // the task due now must be granted
			}
			path = append(path, f)
		}
		// Take the next untried choice on the path, backing out of the
		// states that have none left.
		for {
			f := &path[len(path)-1]
			if len(w.slots) > f.at {
				w.undo(f.dropped)
			}
			if f.next <= f.last {
				c := f.next
				if c == len(s) {
					c = Idle
				}
				f.next++
				f.dropped = w.grant(c)
				break
			}
			w.entered[f.key] = dead
			path = path[:len(path)-1]
			if len(path) == 0 {
				return nil, fmt.Errorf("%w: exhaustive search found no valid cycle", ErrInfeasible)
			}
		}
	}
}
