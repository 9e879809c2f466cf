package pinwheel

import (
	"errors"
	"math/rand"
	"testing"
)

func TestTwoDistinctSimple(t *testing.T) {
	systems := []System{
		{{A: 1, B: 2}, {A: 1, B: 3}},                             // density 5/6
		{{A: 1, B: 2}, {A: 1, B: 4}, {A: 1, B: 4}},               // density 1 exactly
		{{A: 1, B: 3}, {A: 1, B: 3}, {A: 1, B: 3}},               // one window, density 1
		{{A: 1, B: 3}, {A: 1, B: 7}, {A: 1, B: 7}, {A: 1, B: 7}}, // k = 2
	}
	for _, s := range systems {
		sch, err := twoDistinct(s)
		if err != nil {
			t.Fatalf("TwoDistinct(%v): %v", s, err)
		}
		if err := sch.Verify(s); err != nil {
			t.Fatalf("invalid schedule for %v: %v", s, err)
		}
	}
}

func TestTwoDistinctDensityOneTwoTasks(t *testing.T) {
	// Holte et al. 1992: every two-task system with density ≤ 1 is
	// schedulable. Exercise many (a, b) pairs where the frame
	// construction applies.
	for a := 2; a <= 8; a++ {
		for b := a; b <= 4*a; b++ {
			s := System{{A: 1, B: a}, {A: 1, B: b}}
			sch, err := twoDistinct(s)
			if err != nil {
				// The frame condition 1/a + 1/(a⌊b/a⌋) ≤ 1 can only fail
				// for a = 2, b < 4 (density near 1); verify that is the
				// only failure mode.
				if 1.0/float64(a)+1.0/float64(a*(b/a)) <= 1.0 {
					t.Fatalf("(1,%d),(1,%d): unexpected failure: %v", a, b, err)
				}
				continue
			}
			if err := sch.Verify(s); err != nil {
				t.Fatalf("(1,%d),(1,%d): invalid: %v", a, b, err)
			}
		}
	}
}

func TestTwoDistinctRejectsGeneralSystems(t *testing.T) {
	if _, err := twoDistinct(System{{A: 2, B: 5}}); !errors.Is(err, ErrSchedulerFailed) {
		t.Fatal("non-unit task accepted")
	}
	if _, err := twoDistinct(System{{A: 1, B: 2}, {A: 1, B: 3}, {A: 1, B: 5}}); !errors.Is(err, ErrSchedulerFailed) {
		t.Fatal("three distinct windows accepted")
	}
}

func TestTwoDistinctOverloadRejected(t *testing.T) {
	// Three tasks of window 2: density 1.5.
	s := System{{A: 1, B: 2}, {A: 1, B: 2}, {A: 1, B: 2}}
	if _, err := twoDistinct(s); err == nil {
		t.Fatal("overloaded system accepted")
	}
}

func TestTwoDistinctSpacingExact(t *testing.T) {
	// Slow tasks must be served with spacing exactly a·k.
	s := System{{A: 1, B: 3}, {A: 1, B: 6}, {A: 1, B: 6}}
	sch, err := twoDistinct(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if g := sch.MaxGap(i); g > 6 {
			t.Fatalf("slow task %d max gap %d > 6", i, g)
		}
	}
}

func TestPortfolioUsesTwoDistinct(t *testing.T) {
	// Density-1 two-window system: Sa and Sx fail (specialization
	// pushes density above 1), TwoDistinct succeeds.
	s := System{{A: 1, B: 2}, {A: 1, B: 4}, {A: 1, B: 4}}
	if _, err := sx(s); err == nil {
		t.Skip("Sx handles it on this instance; portfolio order untestable here")
	}
	sch, err := Solve(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(s); err != nil {
		t.Fatal(err)
	}
}

func TestTwoDistinctRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		a := 2 + rng.Intn(10)
		b := a * (1 + rng.Intn(4))
		na := rng.Intn(a)
		nb := 1 + rng.Intn(2*a)
		var s System
		for i := 0; i < na; i++ {
			s = append(s, Task{A: 1, B: a})
		}
		for i := 0; i < nb; i++ {
			s = append(s, Task{A: 1, B: b})
		}
		if len(s) == 0 {
			continue
		}
		sch, err := twoDistinct(s)
		if err != nil {
			continue // construction infeasible for this draw
		}
		if err := sch.Verify(s); err != nil {
			t.Fatalf("trial %d: invalid schedule for %v: %v", trial, s, err)
		}
	}
}

func TestThreeTaskFiveSixthsBound(t *testing.T) {
	// §3.1 cites Lin & Lin: every three-task system with density at
	// most 5/6 is schedulable, and the bound is tight (Example 1's
	// third system approaches density 5/6 from above as n grows and is
	// always infeasible). Validate the positive side empirically: the
	// portfolio must schedule every random three-task unit system with
	// density ≤ 5/6.
	rng := rand.New(rand.NewSource(101))
	checked := 0
	for trial := 0; trial < 400 && checked < 120; trial++ {
		sys := System{
			{A: 1, B: 2 + rng.Intn(12)},
			{A: 1, B: 2 + rng.Intn(18)},
			{A: 1, B: 2 + rng.Intn(24)},
		}
		if sys.Density() > 5.0/6.0+1e-9 {
			continue
		}
		sch, err := Solve(sys, nil)
		if err != nil {
			t.Fatalf("portfolio failed on 3-task system %v (density %.4f ≤ 5/6): %v",
				sys, sys.Density(), err)
		}
		if err := sch.Verify(sys); err != nil {
			t.Fatal(err)
		}
		checked++
	}
	if checked < 60 {
		t.Fatalf("only %d systems checked", checked)
	}
}
