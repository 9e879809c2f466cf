package pinwheel

import (
	"fmt"
	"sort"
)

// twoDistinct schedules unit-task systems whose windows take at most
// two distinct values — the class solved completely by Holte, Rosier,
// Tulchinsky & Varvel, "Pinwheel scheduling with two distinct numbers"
// (TCS 1992), cited in §3.1 of the paper. With windows a < b and nₐ
// and n_b tasks of each, the system is scheduled whenever
//
//	nₐ/a + n_b/(a·⌊b/a⌋) ≤ 1,
//
// by a frame construction: the timeline is cut into frames of a slots;
// each a-window task owns one fixed offset in every frame, and the
// b-window tasks share the remaining offsets in rotation, each being
// served once every k = ⌊b/a⌋ frames (spacing exactly a·k ≤ b).
//
// For systems that are not unit, not two-valued or with levels, it
// returns ErrSchedulerFailed so the portfolio can move on.
func twoDistinct(s System) (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var windows []int
	byWindow := map[int][]int{}
	for i, t := range s {
		if t.A != 1 || len(t.Later) > 0 {
			return nil, fmt.Errorf("%w: TwoDistinct handles unit one-window tasks only", ErrSchedulerFailed)
		}
		if _, seen := byWindow[t.B]; !seen {
			windows = append(windows, t.B)
		}
		byWindow[t.B] = append(byWindow[t.B], i)
	}
	if len(windows) > 2 {
		return nil, fmt.Errorf("%w: %d distinct windows, TwoDistinct handles at most 2",
			ErrSchedulerFailed, len(windows))
	}
	sort.Ints(windows)

	a := windows[0]
	fast := byWindow[a]
	var slow []int
	k := 1
	if len(windows) == 2 {
		b := windows[1]
		slow = byWindow[b]
		k = b / a
	}
	// Feasibility of the frame construction: the fast tasks take
	// len(fast) offsets of every frame; the slow tasks need
	// ⌈len(slow)/k⌉ further offsets.
	needSlow := (len(slow) + k - 1) / k
	if len(fast)+needSlow > a {
		return nil, fmt.Errorf("%w: frame construction needs %d offsets in frames of %d",
			ErrSchedulerFailed, len(fast)+needSlow, a)
	}

	period := a * k
	slots := make([]int, period)
	for i := range slots {
		slots[i] = Idle
	}
	// Fast tasks: fixed offsets 0..len(fast)-1 in every frame.
	for o, task := range fast {
		for f := 0; f < k; f++ {
			slots[f*a+o] = task
		}
	}
	// Slow tasks: offsets len(fast).. shared in rotation. Slow task j
	// uses offset len(fast)+j/k in frame j%k of every period, giving a
	// spacing of exactly a·k ≤ b.
	for j, task := range slow {
		offset := len(fast) + j/k
		frame := j % k
		slots[frame*a+offset] = task
	}
	return NewSchedule(slots, "TwoDistinct"), nil
}
