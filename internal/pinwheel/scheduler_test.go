package pinwheel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestSpecialize(t *testing.T) {
	cases := []struct {
		c, b, want int
	}{
		{1, 1, 1},
		{1, 7, 4},
		{1, 8, 8},
		{3, 3, 3},
		{3, 11, 6},
		{3, 12, 12},
		{5, 100, 80},
	}
	for _, cse := range cases {
		got, _, err := specialize(cse.c, cse.b)
		if err != nil || got != cse.want {
			t.Errorf("specialize(%d, %d) = %d, %v; want %d", cse.c, cse.b, got, err, cse.want)
		}
	}
	if _, _, err := specialize(5, 4); err == nil {
		t.Fatal("specialize below base did not error")
	}
}

func TestSaSimpleSystems(t *testing.T) {
	systems := []System{
		{{A: 1, B: 2}, {A: 1, B: 4}},
		{{A: 1, B: 2}, {A: 1, B: 4}, {A: 1, B: 8}, {A: 1, B: 8}},
		{{A: 1, B: 3}, {A: 1, B: 9}},
		{{A: 2, B: 4}, {A: 1, B: 8}},
		{{A: 1, B: 10}, {A: 1, B: 20}, {A: 1, B: 40}},
	}
	for _, s := range systems {
		sch, err := Sa(s)
		if err != nil {
			t.Fatalf("Sa(%v): %v", s, err)
		}
		if err := sch.Verify(s); err != nil {
			t.Fatalf("Sa(%v) produced invalid schedule: %v", s, err)
		}
	}
}

func TestSaHalfDensityGuarantee(t *testing.T) {
	// Holte et al.: every system with density ≤ 1/2 is scheduled by Sa.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := randomSystem(rng, 1+rng.Intn(6), 0.5)
		if s.Density() > 0.5 {
			continue
		}
		sch, err := Sa(s)
		if err != nil {
			t.Fatalf("Sa failed on density-%.3f system %v: %v", s.Density(), s, err)
		}
		if err := sch.Verify(s); err != nil {
			t.Fatalf("Sa invalid on %v: %v", s, err)
		}
	}
}

func TestSaGeneralATasksNative(t *testing.T) {
	// a > 1 tasks are placed as multiple residue classes without loss.
	s := System{{A: 3, B: 8}, {A: 2, B: 4}}
	sch, err := Sa(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(s); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateBases(t *testing.T) {
	s := System{{A: 1, B: 7}, {A: 1, B: 10}}
	bases := CandidateBases(s)
	// minB = 7, interval (3, 7]: candidates include 7 and 10/2 = 5.
	want := map[int]bool{7: true, 5: true}
	for _, b := range bases {
		if b <= 3 || b > 7 {
			t.Fatalf("candidate %d outside (3, 7]", b)
		}
		delete(want, b)
	}
	if len(want) != 0 {
		t.Fatalf("missing candidates %v in %v", want, bases)
	}
}

func TestSxBeatsSaOnNonPowerWindows(t *testing.T) {
	// Windows {7, 7, 14}: Sa specializes to {4, 4, 8} (density 5/8 from
	// 3/7·…); Sx picks base 7 and loses nothing.
	s := System{{A: 1, B: 7}, {A: 1, B: 7}, {A: 1, B: 14}}
	if d := SpecializedDensity(s, 7); d != s.Density() {
		t.Fatalf("base-7 specialized density = %v, want lossless %v", d, s.Density())
	}
	sch, err := Sx(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(s); err != nil {
		t.Fatal(err)
	}
	// Density 5/14 + … = 1/7+1/7+1/14 = 5/14 ≈ 0.357: Sa also works, but
	// a tight case: three tasks of window 3 with density 1 exactly.
	tight := System{{A: 1, B: 3}, {A: 1, B: 3}, {A: 1, B: 3}}
	sch, err = Sx(tight)
	if err != nil {
		t.Fatalf("Sx failed on density-1 harmonic system: %v", err)
	}
	if err := sch.Verify(tight); err != nil {
		t.Fatal(err)
	}
	if _, err := Sa(tight); err == nil {
		t.Fatal("Sa unexpectedly scheduled density-1 window-3 system (specializes to 2)")
	}
}

func TestScheduleChainPeriodLimit(t *testing.T) {
	s := System{{A: 1, B: DefaultMaxPeriod * 4}}
	_, err := ScheduleChain(s, 1, 1024)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestEDFPaperExample(t *testing.T) {
	sys := System{{A: 1, B: 2}, {A: 1, B: 3}}
	sch, err := EDF(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
}

func TestEDFGeneralA(t *testing.T) {
	sys := System{{A: 2, B: 5}, {A: 1, B: 3}}
	sch, err := EDF(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
}

func TestEDFHighDensity(t *testing.T) {
	// Density 5/6 two-task system — beyond the 7/10 bound; EDF handles it.
	sys := System{{A: 1, B: 2}, {A: 1, B: 3}}
	if sys.Density() <= 0.7 {
		t.Fatal("test system density should exceed 0.7")
	}
	sch, err := EDF(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
}

func TestExactFeasible(t *testing.T) {
	sys := System{{A: 1, B: 2}, {A: 1, B: 3}}
	sch, err := Exact(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
}

func TestExactInfeasibleExample1(t *testing.T) {
	// Third system of Example 1: {(1,1,2), (2,1,3), (3,1,n)} cannot be
	// scheduled for any finite n. Check a sample of n values.
	for _, n := range []int{4, 7, 12, 20} {
		sys := System{{A: 1, B: 2}, {A: 1, B: 3}, {A: 1, B: n}}
		_, err := Exact(sys, 0)
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("n=%d: err = %v, want ErrInfeasible", n, err)
		}
	}
}

func TestExactDensityAboveOne(t *testing.T) {
	sys := System{{A: 1, B: 1}, {A: 1, B: 2}}
	_, err := Exact(sys, 0)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestExactBudgetExhaustion(t *testing.T) {
	sys := System{{A: 1, B: 9}, {A: 1, B: 10}, {A: 1, B: 11}, {A: 1, B: 12}}
	_, err := Exact(sys, 8)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestPortfolioFeasibleSystems(t *testing.T) {
	systems := []System{
		{{A: 1, B: 2}, {A: 1, B: 3}},               // density 5/6
		{{A: 2, B: 5}, {A: 1, B: 3}},               // paper Example 1
		{{A: 1, B: 7}, {A: 1, B: 8}, {A: 1, B: 9}}, // awkward windows
		{{A: 5, B: 100}, {A: 3, B: 50}, {A: 7, B: 70}},
	}
	for _, s := range systems {
		sch, err := Solve(s, nil)
		if err != nil {
			t.Fatalf("portfolio failed on %v: %v", s, err)
		}
		if err := sch.Verify(s); err != nil {
			t.Fatalf("portfolio invalid on %v: %v", s, err)
		}
	}
}

func TestPortfolioProvesInfeasible(t *testing.T) {
	sys := System{{A: 1, B: 2}, {A: 1, B: 3}, {A: 1, B: 8}}
	_, err := Solve(sys, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestPortfolioDensityAboveOne(t *testing.T) {
	sys := System{{A: 3, B: 4}, {A: 1, B: 2}}
	_, err := Solve(sys, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestPortfolioSchedulesAllCCWorkloads(t *testing.T) {
	// The property the Bdisk construction relies on (README "Mapping the
	// API to the paper", DensityTestCC): every workload passing the 7/10 test
	// is actually scheduled by the portfolio.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		s := randomSystem(rng, 1+rng.Intn(8), 0.7)
		if !DensityTestCC(s) {
			continue
		}
		sch, err := Solve(s, nil)
		if err != nil {
			t.Fatalf("portfolio failed on CC-feasible system %v (density %.4f): %v",
				s, s.Density(), err)
		}
		if err := sch.Verify(s); err != nil {
			t.Fatalf("portfolio invalid on %v: %v", s, err)
		}
	}
}

// randomSystem generates a random system with density at most maxDensity
// (approximately — it stops adding tasks when the target is exceeded and
// trims the last task's share).
func randomSystem(rng *rand.Rand, n int, maxDensity float64) System {
	var s System
	remaining := maxDensity
	for i := 0; i < n && remaining > 0.005; i++ {
		b := 2 + rng.Intn(60)
		maxA := int(remaining * float64(b))
		if maxA < 1 {
			continue
		}
		a := 1
		if maxA > 1 && rng.Intn(2) == 0 {
			a = 1 + rng.Intn(maxA)
		}
		if a > b {
			a = b
		}
		s = append(s, Task{A: a, B: b})
		remaining -= float64(a) / float64(b)
	}
	if len(s) == 0 {
		b := 8 + rng.Intn(56)
		s = append(s, Task{A: 1, B: b})
	}
	return s
}

func TestSchedulersListedInOrder(t *testing.T) {
	names := []string{"Sa", "Sx", "EDF", "Portfolio"}
	got := Schedulers()
	if len(got) != len(names) {
		t.Fatalf("got %d schedulers", len(got))
	}
	for i, ns := range got {
		if ns.Name != names[i] {
			t.Fatalf("scheduler %d = %q, want %q", i, ns.Name, names[i])
		}
	}
}

func BenchmarkSa20Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	s := randomSystem(rng, 20, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sa(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEDF6Tasks(b *testing.B) {
	s := System{{A: 1, B: 6}, {A: 1, B: 7}, {A: 1, B: 8}, {A: 1, B: 9}, {A: 1, B: 10}, {A: 1, B: 11}}
	if _, err := EDF(s, 0); err != nil {
		b.Fatalf("bench workload not EDF-schedulable: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EDF(s, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify certifies a solved schedule: a small random system,
// and the pinwheel system of cmd/bdload's admit-churn catalogue with its
// churn file on (workload.Random(256, 8, 10, 80, 0, 1)'s draws, one
// tolerated fault each, Equation-2 bandwidth: 257 tasks, 2640 slots).
func BenchmarkVerify(b *testing.B) {
	churn := System{{A: 5, B: 40}}
	density := 5.0 / 40
	rng := rand.New(rand.NewSource(1))
	for len(churn) < 257 {
		blocks, latency := 1+rng.Intn(8), 10+rng.Intn(71)
		rng.Intn(1) // the catalogue's fault draw
		churn = append(churn, Task{A: blocks + 1, B: latency})
		density += float64(blocks+1) / float64(latency)
	}
	for i := range churn {
		churn[i].B *= int(math.Ceil(10.0 / 7.0 * density))
	}
	for _, s := range []System{randomSystem(rand.New(rand.NewSource(37)), 12, 0.5), churn} {
		sch, err := Solve(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tasks=%d/slots=%d", len(s), sch.Period), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sch.Verify(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
