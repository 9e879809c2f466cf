package pinwheel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// This file implements the "integer reduction" family of pinwheel
// schedulers (Holte et al. 1989; Chan & Chin 1992): window sizes are
// specialized (rounded down) to a geometric chain {c·2^k}, after which
// the specialized system — whose windows pairwise divide one another —
// is scheduled by buddy allocation of residue classes.
//
// A task (a, b′) with specialized window b′ = c·2^k receives a residue
// classes of modulus b′: every window of b′ consecutive slots then
// contains exactly one slot from each class, i.e. exactly a grants, so
// every window of the original size b ≥ b′ contains at least a grants.
// Processing tasks in nondecreasing specialized-window order, buddy
// allocation succeeds whenever the specialized density is at most 1.
//
// With c a power of two (scheduler Sa), specialization at most halves a
// window, so any system with density ≤ 1/2 has specialized density ≤ 1
// and is scheduled — Holte et al.'s bound. Scheduler Sx additionally
// searches the candidate bases c at which some window's specialization
// changes, in the spirit of Chan & Chin's integer-reduction schedulers,
// and keeps whichever base minimizes the specialized density.

// specialize returns the largest c·2^k ≤ b, or an error if b < c.
func specialize(c, b int) (int, error) {
	if b < c {
		return 0, fmt.Errorf("pinwheel: window %d below chain base %d", b, c)
	}
	return c << (bits.Len(uint(b/c)) - 1), nil
}

// specializedDensity returns the density of the system after windows are
// specialized to the chain {c·2^k}, or +Inf if some window is below c.
func specializedDensity(s System, c int) float64 {
	d := 0.0
	for _, t := range s {
		spec, err := specialize(c, t.B)
		if err != nil {
			return math.Inf(1)
		}
		d += float64(t.A) / float64(spec)
	}
	return d
}

// scheduleChain specializes every window to the chain {c·2^k} and
// schedules by buddy allocation. It fails with ErrSchedulerFailed on a
// task with levels and when the specialized density exceeds 1 (the
// allocation runs out of classes), and with ErrTooLarge when the
// resulting period would exceed maxPeriod.
func scheduleChain(s System, c int, maxPeriod int) (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	type specTask struct{ idx, a, spec int }
	tasks := make([]specTask, len(s))
	period := c
	for i, t := range s {
		spec, err := specialize(c, t.B)
		if err == nil && len(t.Later) > 0 {
			err = fmt.Errorf("task %d has %d windows, the chain takes one", i, len(t.Later)+1)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrSchedulerFailed, err)
		}
		tasks[i] = specTask{idx: i, a: t.A, spec: spec}
		if spec > period {
			period = spec
		}
	}
	if period > maxPeriod {
		return nil, fmt.Errorf("%w: period %d exceeds limit %d", ErrTooLarge, period, maxPeriod)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].spec < tasks[j].spec })

	// free[k] holds the offsets of the free residue classes of modulus
	// c·2^k, an int, so k < 64. Initially the c classes of modulus c
	// partition the timeline.
	var free [64][]int
	free[0] = make([]int, c)
	for o := range free[0] {
		free[0][o] = o
	}

	slots := make([]int, period)
	for t := range slots {
		slots[t] = Idle
	}

	for _, tk := range tasks {
		k := bits.Len(uint(tk.spec/c)) - 1
		for grant := 0; grant < tk.a; grant++ {
			off, ok := takeClass(free[:], c, k)
			if !ok {
				return nil, fmt.Errorf("%w: buddy allocation exhausted at task %d (specialized density %.4f)",
					ErrSchedulerFailed, tk.idx, specializedDensity(s, c))
			}
			for t := off; t < period; t += tk.spec {
				slots[t] = tk.idx
			}
		}
	}
	return NewSchedule(slots, fmt.Sprintf("chain(c=%d)", c)), nil
}

// takeClass removes a free residue class of modulus c·2^want from free
// and returns its offset, splitting a smaller-modulus class if needed.
// Classes are chosen best-fit: the free class of the largest modulus ≤
// c·2^want, the last one freed first.
func takeClass(free [][]int, c, want int) (int, bool) {
	k := want
	for k >= 0 && len(free[k]) == 0 {
		k--
	}
	if k < 0 {
		return 0, false
	}
	off := free[k][len(free[k])-1]
	free[k] = free[k][:len(free[k])-1]
	// Split (off, c·2^k) into (off, c·2^(k+1)) kept and (off+c·2^k,
	// c·2^(k+1)) freed, until the modulus reaches c·2^want.
	for ; k < want; k++ {
		free[k+1] = append(free[k+1], off+c<<k)
	}
	return off, true
}

// defaultMaxPeriod bounds the period of schedules produced by the chain
// schedulers; beyond this the memory cost of materializing the cyclic
// schedule outweighs its usefulness.
const defaultMaxPeriod = 1 << 22

// sa is Holte et al.'s single-number scheduler: windows are specialized
// to powers of two. It is guaranteed to succeed whenever the system
// density is at most 1/2, and succeeds more generally whenever the
// power-of-two specialized density is at most 1.
func sa(s System) (*Schedule, error) {
	sch, err := scheduleChain(s, 1, defaultMaxPeriod)
	if err != nil {
		return nil, err
	}
	sch.Origin = "Sa"
	return sch, nil
}

// candidateBases returns the chain bases worth trying for Sx, in
// increasing order: every value ⌊b/2^k⌋ that lies in (minB/2, minB],
// where minB is the smallest window; each window halves into that
// interval at most once. Bases outside it are either infeasible (>
// minB) or equivalent to one inside it (a base c ≤ minB/2 specializes
// every window ≥ minB exactly as base 2c does).
func candidateBases(s System) []int {
	minB := s.MinWindow()
	bases := []int{minB}
	for _, t := range s {
		b := t.B
		for b > minB {
			b /= 2
		}
		if i, found := slices.BinarySearch(bases, b); b > minB/2 && !found {
			bases = slices.Insert(bases, i, b)
		}
	}
	return bases
}

// sx is the optimized-base integer-reduction scheduler: it evaluates
// every candidate base and schedules with the one minimizing the
// specialized density. It strictly dominates Sa on systems whose
// windows cluster away from powers of two.
func sx(s System) (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	bestC, bestD := 0, math.Inf(1)
	for _, c := range candidateBases(s) {
		if d := specializedDensity(s, c); d < bestD {
			bestC, bestD = c, d
		}
	}
	if bestC == 0 || bestD > 1.0 {
		return nil, fmt.Errorf("%w: best specialized density %.4f > 1", ErrSchedulerFailed, bestD)
	}
	sch, err := scheduleChain(s, bestC, defaultMaxPeriod)
	if err != nil {
		return nil, err
	}
	sch.Origin = fmt.Sprintf("Sx(c=%d)", bestC)
	return sch, nil
}
