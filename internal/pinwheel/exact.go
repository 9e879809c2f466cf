package pinwheel

import (
	"fmt"
	"slices"
)

// This file implements an exact decision procedure for pinwheel
// schedulability of small systems, by exhaustive search of the urgency
// state graph.
//
// A state records, per task, the ages of its last A grants. From each
// state, every choice of task to grant — or leaving the slot idle —
// leads deterministically to a successor; a state in which some task's
// deadline has passed, or in which two tasks share an immediate
// deadline, is dead. The system is schedulable if and only if the
// finite state graph contains an infinite miss-free path from the
// saturated start state, which happens exactly when a cycle of valid
// states is reachable. The search is a colored DFS: an edge back into
// the DFS stack exhibits such a cycle (a "lasso"); exhausting all
// choices proves a state dead.
//
// The cost is exponential in the number of tasks, so exact is only
// attempted below a configurable state budget; it is the ground truth
// the tests use (e.g. the infeasible three-task system of Example 1).

// exactMaxStates is the portfolio's state budget for exact.
const exactMaxStates = 1 << 19

type exactSearcher struct {
	sys       System
	color     map[string]int8 // white (absent), gray, dead
	depth     map[string]int  // depth of gray states on the DFS stack
	stack     []int           // choices made along the current DFS path
	cycleFrom int             // stack depth where the found cycle starts
	budget    int
	exhausted bool
}

const (
	colorGray = 1
	colorDead = 2
)

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
	es := &exactSearcher{
		sys:    s,
		color:  make(map[string]int8),
		depth:  make(map[string]int),
		budget: maxStates,
	}
	// Saturated start state: every task as if just served continuously.
	start := make([][]int, len(s))
	for i, t := range s {
		h := make([]int, t.A)
		for j := range h {
			h[j] = -(j + 1)
		}
		start[i] = h
	}
	ok := es.search(start, 0)
	if es.exhausted {
		return nil, fmt.Errorf("%w: exact search exceeded %d states", ErrTooLarge, maxStates)
	}
	if !ok {
		return nil, fmt.Errorf("%w: exhaustive search found no valid cycle", ErrInfeasible)
	}
	return NewSchedule(slices.Clone(es.stack[es.cycleFrom:]), "Exact"), nil
}

// search explores from the given grant-history state at time t. States
// are age-normalized, so t only serves to compute ages. On success the
// DFS stack es.stack holds the lasso and es.cycleFrom marks where its
// cycle begins.
func (es *exactSearcher) search(last [][]int, t int) bool {
	key := stateKey(last, t)
	switch es.color[key] {
	case colorGray:
		// Lasso found: the cycle is the stack suffix from this state's
		// first occurrence to now.
		es.cycleFrom = es.depth[key]
		return true
	case colorDead:
		return false
	}
	if len(es.color) >= es.budget {
		es.exhausted = true
		return false
	}
	es.color[key] = colorGray
	es.depth[key] = len(es.stack)

	ok := es.expand(last, t)
	if !ok {
		es.color[key] = colorDead
		delete(es.depth, key)
	}
	// On success the state stays gray; the search unwinds immediately.
	return ok
}

// expand tries every valid choice from the state, returning true when
// some choice leads to a lasso.
func (es *exactSearcher) expand(last [][]int, t int) bool {
	// A task whose deadline is now must be granted in this very slot.
	mustGrant := -1
	for i, h := range last {
		d := h[len(h)-1] + es.sys[i].B
		if d < t {
			return false // deadline already missed: dead state
		}
		if d == t {
			if mustGrant >= 0 {
				return false // two immediate deadlines: unavoidable miss
			}
			mustGrant = i
		}
	}
	var choices []int
	if mustGrant >= 0 {
		choices = []int{mustGrant}
	} else {
		choices = make([]int, 0, len(es.sys)+1)
		for i := range es.sys {
			choices = append(choices, i)
		}
		choices = append(choices, Idle)
	}
	for _, c := range choices {
		es.stack = append(es.stack, c)
		if es.search(advance(last, c, t), t+1) {
			return true
		}
		es.stack = es.stack[:len(es.stack)-1]
		if es.exhausted {
			return false
		}
	}
	return false
}

// advance returns the successor grant-history state after granting
// choice (a task index or Idle) in slot t.
func advance(last [][]int, choice, t int) [][]int {
	next := make([][]int, len(last))
	for i, h := range last {
		nh := make([]int, len(h))
		copy(nh, h)
		if i == choice {
			copy(nh[1:], h[:len(h)-1])
			nh[0] = t
		}
		next[i] = nh
	}
	return next
}
