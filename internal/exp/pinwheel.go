package exp

import (
	"errors"
	"fmt"
	"math/rand"

	"pinbcast"
	"pinbcast/internal/algebra"
	"pinbcast/internal/pinwheel"
)

// Example1 regenerates the three pinwheel systems of Example 1,
// including the provably infeasible three-task system.
func Example1() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Example 1 — pinwheel task systems",
		Header: []string{"system", "density", "result", "schedule (one period)"},
	}
	cases := []struct {
		sys  pinwheel.System
		note string
	}{
		{pinwheel.System{{A: 1, B: 2}, {A: 1, B: 3}}, "paper: 1,2,1,2,…"},
		{pinwheel.System{{A: 2, B: 5}, {A: 1, B: 3}}, "paper: 1,2,1,⊔,2,…"},
		{pinwheel.System{{A: 1, B: 2}, {A: 1, B: 3}, {A: 1, B: 12}}, "paper: infeasible for any n"},
	}
	for _, c := range cases {
		sch, err := pinwheel.Solve(c.sys, nil)
		switch {
		case err == nil:
			t.AddRow(c.sys.String(), c.sys.Density(), "schedulable ("+sch.Origin+")", sch.String())
		case errors.Is(err, pinwheel.ErrInfeasible):
			t.AddRow(c.sys.String(), c.sys.Density(), "infeasible (proved)", "—")
		default:
			return nil, err
		}
	}
	return t, nil
}

// Examples2to6 regenerates the algebra conversion table of §4.2: for
// each example condition, the density lower bound, TR1's and TR2's
// densities, the best conversion found, and the paper's reported best.
func Examples2to6() (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Examples 2–6 — conversion to nice pinwheel conjuncts",
		Header: []string{"example", "bc condition", "lower bound", "TR1", "TR2",
			"best found", "density", "paper best"},
	}
	cases := []struct {
		name  string
		bc    algebra.BC
		paper float64
	}{
		{"Ex. 2", algebra.BC{Task: "i", M: 5, D: []int{100, 105, 110, 115, 120}}, 1.0 / 13},
		{"Ex. 3", algebra.BC{Task: "i", M: 6, D: []int{105, 110}}, 6.0/105 + 1.0/110},
		{"Ex. 4", algebra.BC{Task: "i", M: 4, D: []int{8, 9}}, 0.6},
		{"Ex. 5", algebra.BC{Task: "i", M: 2, D: []int{5, 6, 6}}, 2.0 / 3},
		{"Ex. 6", algebra.BC{Task: "i", M: 1, D: []int{2, 3}}, 2.0 / 3},
	}
	for _, c := range cases {
		rep, err := algebra.Report(c.bc)
		if err != nil {
			return nil, err
		}
		if rep.BestDensity > c.paper+1e-9 {
			return nil, fmt.Errorf("exp: %s conversion (%.4f) worse than paper (%.4f)",
				c.name, rep.BestDensity, c.paper)
		}
		tr1 := "—"
		if rep.TR1Density >= 0 {
			tr1 = fmt.Sprintf("%.4f", rep.TR1Density)
		}
		tr2 := "—"
		if rep.TR2Density >= 0 {
			tr2 = fmt.Sprintf("%.4f", rep.TR2Density)
		}
		t.AddRow(c.name, c.bc.String(), rep.LowerBound, tr1, tr2,
			rep.Best.String(), rep.BestDensity, c.paper)
	}
	t.Notes = append(t.Notes,
		"Ex. 4: the systematic converter finds pc(5,9) at density 5/9 ≈ 0.5556,",
		"matching the lower bound and beating the paper's best of 0.6",
		"Ex. 5: at the paper's density 2/3 the converter keeps the weaker pc(4,6),",
		"which the paper's pc(2,3) implies")
	return t, nil
}

// DensitySweep regenerates the §3.1 schedulability-bounds picture
// empirically: for random unit-task systems of increasing density, the
// success rate of each scheduler. Holte et al. guarantee density ≤ 1/2
// (Sa); Chan & Chin ≤ 7/10; the portfolio reaches further.
func DensitySweep(densities []float64, trials int, seed int64) (*Table, error) {
	schedulers := compared()
	header := []string{"density"}
	for _, s := range schedulers {
		header = append(header, s.Name()+" success")
	}
	t := &Table{
		ID:     "E9",
		Title:  "§3.1 density bounds — scheduler success rate vs density",
		Header: header,
	}
	rng := rand.New(rand.NewSource(seed))
	for _, d := range densities {
		row := []interface{}{fmt.Sprintf("%.2f", d)}
		for _, s := range schedulers {
			ok := 0
			for k := 0; k < trials; k++ {
				if _, err := pinwheel.Solve(randomUnitSystem(rng, 3+k%6, d), []pinwheel.Scheduler{s}); err == nil {
					ok++
				}
			}
			row = append(row, fmt.Sprintf("%d/%d", ok, trials))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"Sa is total up to density 0.5 (Holte et al.); the portfolio covers every",
		"Chan–Chin-feasible (≤ 0.7) instance in these sweeps, matching the paper's usage")
	return t, nil
}

// compared returns the registered schedulers E9 and E14 set side by
// side. The names are constants, so a lookup failure is a bug.
func compared() []pinwheel.Scheduler {
	out, err := pinwheel.Named(pinbcast.SchedulerSa, pinbcast.SchedulerSx, pinbcast.SchedulerEDF, pinbcast.SchedulerPortfolio)
	if err != nil {
		panic(err)
	}
	return out
}

// randomUnitSystem builds a random unit-task system with total density
// close to d.
func randomUnitSystem(rng *rand.Rand, n int, d float64) pinwheel.System {
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = 0.2 + rng.Float64()
		sum += weights[i]
	}
	sys := make(pinwheel.System, n)
	for i := range sys {
		share := d * weights[i] / sum
		b := int(1.0/share + 0.5)
		if b < 2 {
			b = 2
		}
		sys[i] = pinwheel.Task{A: 1, B: b}
	}
	return sys
}
