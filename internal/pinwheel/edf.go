package pinwheel

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file implements a greedy earliest-deadline-first scheduler with
// cycle detection.
//
// For a task (a, b) with grant times g₁ < g₂ < …, the window condition
// "at least a grants in every b consecutive slots" is equivalent to
// g_{j+a} ≤ g_j + b for all j (taking virtual grants at negative times
// for the start-up transient). The next grant of a task is therefore due
// no later than (a-th most recent grant) + b. EDF grants, in every slot,
// the task with the earliest such deadline. Because the per-task state
// (the ages of its last a grants) lives in a finite space, the schedule
// is eventually periodic; we detect the first repeated state, cut out
// the cycle, and verify it cyclically.
//
// EDF is not optimal for pinwheel systems, so failure here does not
// prove infeasibility — but on realistic instances it succeeds well past
// the 7/10 density bound, and Solve verifies every schedule it returns.

// edfMaxSlots is the portfolio's simulation horizon for EDF.
const edfMaxSlots = 1 << 20

// edf schedules the system by greedy earliest-deadline-first simulation,
// returning the periodic part once the urgency state repeats within
// maxSlots slots.
func edf(s System, maxSlots int) (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := len(s)
	// last[i] holds the times of the most recent s[i].A grants of task i,
	// most recent first, initialized to the saturated virtual history
	// −1, −2, …, −A (as if the task had just been served continuously).
	last := make([][]int, n)
	for i, t := range s {
		h := make([]int, t.A)
		for j := range h {
			h[j] = -(j + 1)
		}
		last[i] = h
	}
	deadline := func(i int) int {
		h := last[i]
		return h[len(h)-1] + s[i].B
	}

	seen := make(map[string]int) // state key -> slot index at which it occurred
	var slots []int
	for t := 0; t < maxSlots; t++ {
		key := stateKey(last, t)
		if start, ok := seen[key]; ok {
			return NewSchedule(slices.Clone(slots[start:]), "EDF"), nil
		}
		seen[key] = t

		// Pick the task with the earliest deadline.
		pick, best := -1, int(^uint(0)>>1)
		for i := range s {
			if d := deadline(i); d < best {
				pick, best = i, d
			}
		}
		if best < t {
			return nil, fmt.Errorf("%w: EDF missed a deadline of task %d at slot %d", ErrSchedulerFailed, pick, t)
		}
		// Grant and advance the task's history.
		h := last[pick]
		copy(h[1:], h[:len(h)-1])
		h[0] = t
		slots = append(slots, pick)
	}
	return nil, fmt.Errorf("%w: no cycle within %d slots", ErrTooLarge, maxSlots)
}

// stateKey encodes the per-task grant ages at time t. Ages fully
// determine future behaviour, so a repeated key means the schedule has
// entered a cycle.
func stateKey(last [][]int, t int) string {
	buf := make([]byte, 0, 4*8)
	var tmp [4]byte
	for _, h := range last {
		for _, g := range h {
			binary.BigEndian.PutUint32(tmp[:], uint32(t-g))
			buf = append(buf, tmp[:]...)
		}
		buf = append(buf, 0xff)
	}
	return string(buf)
}
