package pinwheel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pinbcast/internal/bcerr"
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
		got, err := specialize(cse.c, cse.b)
		if err != nil || got != cse.want {
			t.Errorf("specialize(%d, %d) = %d, %v; want %d", cse.c, cse.b, got, err, cse.want)
		}
	}
	if _, err := specialize(5, 4); err == nil {
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
		sch, err := sa(s)
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
		sch, err := sa(s)
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
	sch, err := sa(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(s); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateBases(t *testing.T) {
	s := System{{A: 1, B: 7}, {A: 1, B: 10}}
	bases := candidateBases(s)
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
	if d := specializedDensity(s, 7); d != s.Density() {
		t.Fatalf("base-7 specialized density = %v, want lossless %v", d, s.Density())
	}
	sch, err := sx(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(s); err != nil {
		t.Fatal(err)
	}
	// Density 5/14 + … = 1/7+1/7+1/14 = 5/14 ≈ 0.357: Sa also works, but
	// a tight case: three tasks of window 3 with density 1 exactly.
	tight := System{{A: 1, B: 3}, {A: 1, B: 3}, {A: 1, B: 3}}
	sch, err = sx(tight)
	if err != nil {
		t.Fatalf("Sx failed on density-1 harmonic system: %v", err)
	}
	if err := sch.Verify(tight); err != nil {
		t.Fatal(err)
	}
	if _, err := sa(tight); err == nil {
		t.Fatal("Sa unexpectedly scheduled density-1 window-3 system (specializes to 2)")
	}
}

func TestScheduleChainPeriodLimit(t *testing.T) {
	s := System{{A: 1, B: defaultMaxPeriod * 4}}
	_, err := scheduleChain(s, 1, 1024)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestChainTakesBestFit pins the slot tables of Sa and Sx on systems
// where best fit (the free class of the largest modulus that divides
// the wanted one) and smallest-modulus-first take different classes.
// The tables were worked by hand: tasks go in nondecreasing specialized
// window, each grant takes the last class freed at its level and
// splits it down, freeing off+c·2^k at each level k it passes.
func TestChainTakesBestFit(t *testing.T) {
	const I = Idle
	cases := []struct {
		name   string
		run    func(System) (*Schedule, error)
		sys    System
		origin string
		slots  []int
	}{
		// Task 0 takes 0 and frees 1, 2 and 4; task 1 then takes 4,
		// where smallest-modulus-first would split 1.
		{"sa", sa, System{{A: 1, B: 8}, {A: 1, B: 8}}, "Sa",
			[]int{0, I, I, I, 1, I, I, I}},
		// Task 1 (window 4) takes 0 and frees 1 and 2; task 0 takes 2,
		// freeing 6, then 6; task 2 splits 1 for window 16. Smallest
		// first would give task 0 class 1.
		{"sa", sa, System{{A: 2, B: 8}, {A: 1, B: 4}, {A: 1, B: 16}}, "Sa",
			[]int{1, 2, 0, I, 1, I, 0, I, 1, I, 0, I, 1, I, 0, I}},
		// Base 6: task 2 takes 5, task 0 splits 4 and frees 10, which
		// task 1 takes; smallest first would split 3 for task 1.
		{"sx", sx, System{{A: 1, B: 12}, {A: 1, B: 13}, {A: 1, B: 6}}, "Sx(c=6)",
			[]int{I, I, I, I, 0, 2, I, I, I, I, 1, 2}},
	}
	for _, c := range cases {
		sch, err := c.run(c.sys)
		if err != nil {
			t.Fatalf("%s on %v: %v", c.name, c.sys, err)
		}
		if sch.Origin != c.origin || !slices.Equal(sch.Slots, c.slots) {
			t.Errorf("%s on %v: %s %v, want %s %v", c.name, c.sys, sch.Origin, sch.Slots, c.origin, c.slots)
		}
	}
}

func TestEDFPaperExample(t *testing.T) {
	sys := System{{A: 1, B: 2}, {A: 1, B: 3}}
	sch, err := edf(sys, edfMaxSlots)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
}

func TestEDFGeneralA(t *testing.T) {
	sys := System{{A: 2, B: 5}, {A: 1, B: 3}}
	sch, err := edf(sys, edfMaxSlots)
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
	sch, err := edf(sys, edfMaxSlots)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
}

func TestExactFeasible(t *testing.T) {
	sys := System{{A: 1, B: 2}, {A: 1, B: 3}}
	sch, err := exact(sys, exactMaxStates)
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
		_, err := exact(sys, exactMaxStates)
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("n=%d: err = %v, want ErrInfeasible", n, err)
		}
	}
}

func TestExactDensityAboveOne(t *testing.T) {
	sys := System{{A: 1, B: 1}, {A: 1, B: 2}}
	_, err := exact(sys, exactMaxStates)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestExactBudgetExhaustion(t *testing.T) {
	sys := System{{A: 1, B: 9}, {A: 1, B: 10}, {A: 1, B: 11}, {A: 1, B: 12}}
	_, err := exact(sys, 8)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestEDFGrantsTheEarliestDeadline holds edf's schedules to its rule
// from the outside. Each cycle is replayed until every task's last A
// grants lie in the replay; through the next period, every slot must
// then grant the task whose A-th most recent grant plus B is earliest,
// ties going to the lower index.
func TestEDFGrantsTheEarliestDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cycles := 0
	for trial := 0; trial < 2000; trial++ {
		s := smallSystem(rng)
		sch, err := edf(s, edfMaxSlots)
		if err != nil {
			continue
		}
		if slices.Contains(sch.Slots, Idle) {
			t.Fatalf("%v: EDF's cycle %v leaves a slot idle", s, sch.Slots)
		}
		for i := range s { // else the replay below never ends
			if !slices.Contains(sch.Slots, i) {
				t.Fatalf("%v: EDF's cycle %v never grants task %d", s, sch.Slots, i)
			}
		}
		grants := make([][]int, len(s)) // grant times in the replay
		short := func() bool {
			for i, g := range grants {
				if len(g) < s[i].A {
					return true
				}
			}
			return false
		}
		from := 0
		for ; short(); from += sch.Period {
			for j, c := range sch.Slots {
				grants[c] = append(grants[c], from+j)
			}
		}
		for j, c := range sch.Slots {
			want, due := 0, 0
			for i, g := range grants {
				if d := g[len(g)-s[i].A] + s[i].B; i == 0 || d < due {
					want, due = i, d
				}
			}
			if c != want {
				t.Fatalf("%v: slot %d of %v grants task %d, but task %d is due no later, by slot %d", s, j, sch.Slots, c, want, due-from)
			}
			grants[c] = append(grants[c], from+j)
		}
		cycles++
	}
	if cycles < 200 {
		t.Fatalf("only %d of the systems were EDF-schedulable", cycles)
	}
}

// TestExactNeverRefutesAScheduledSystem: the exact search proves a
// system infeasible only when no other member can schedule it.
func TestExactNeverRefutesAScheduledSystem(t *testing.T) {
	others := map[string]func(System) (*Schedule, error){"sa": sa, "sx": sx, "two-distinct": twoDistinct,
		"edf": func(s System) (*Schedule, error) { return edf(s, edfMaxSlots) }}
	rng := rand.New(rand.NewSource(47))
	scheduled, refuted := 0, 0
	for trial := 0; trial < 2000; trial++ {
		s := smallSystem(rng)
		_, err := exact(s, exactMaxStates)
		if errors.Is(err, ErrInfeasible) {
			refuted++
		}
		for name, run := range others {
			if sch, serr := run(s); serr == nil && sch.Verify(s) == nil {
				if errors.Is(err, ErrInfeasible) {
					t.Fatalf("%s schedules %v as %v, but exact refutes it: %v", name, s, sch.Slots, err)
				}
				scheduled++
				break
			}
		}
	}
	if scheduled < 200 || refuted < 20 {
		t.Fatalf("%d systems scheduled and %d refuted: too few to hold exact to", scheduled, refuted)
	}
}

// smallSystem draws a system of at most five tasks with windows of at
// most 12 slots, A at most 2 and density in (0.6, 1]: tight enough to
// refute some, small enough for exact to decide each within ~30 ms.
func smallSystem(rng *rand.Rand) System {
	for {
		s := make(System, 1+rng.Intn(5))
		for i := range s {
			s[i].B = 2 + rng.Intn(11)
			s[i].A = 1
			if rng.Intn(4) == 0 {
				s[i].A = 2
			}
		}
		if d := s.Density(); d > 0.6 && d <= 1 {
			return s
		}
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
	names := []string{"sa", "sx", "two-distinct", "edf", "exact", "portfolio"}
	if len(Registered) != len(names) {
		t.Fatalf("got %d schedulers", len(Registered))
	}
	for i, s := range Registered {
		if s.Name() != names[i] {
			t.Fatalf("scheduler %d = %q, want %q", i, s.Name(), names[i])
		}
	}
}

// TestNamed: Named returns the registered schedulers in the order
// named, no names is the nil chain (the portfolio), and a name that is
// not registered, the empty one and the unregistered member convert
// included, wraps ErrBadSpec.
func TestNamed(t *testing.T) {
	chain, err := Named("edf", "sa", "sx", "edf")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range chain {
		got = append(got, s.Name())
	}
	if want := []string{"edf", "sa", "sx", "edf"}; !slices.Equal(got, want) {
		t.Fatalf("Named(%v) = %v", want, got)
	}
	if chain, err := Named(); chain != nil || err != nil {
		t.Fatalf("Named() = %v, %v; want the nil chain", chain, err)
	}
	for _, name := range []string{"mystery", "", "convert", "EDF"} {
		if chain, err := Named("sx", name); !errors.Is(err, bcerr.ErrBadSpec) || chain != nil {
			t.Errorf("Named(sx, %q) = %v, %v; want ErrBadSpec", name, chain, err)
		}
	}
}

// TestSchedulersPrintTheirOrigin pins the Origin each registered
// scheduler stamps on a system it schedules — bdiskgen, pinsched, bdsim
// and the experiment tables print it — and the portfolio's, which is its
// winning member's.
func TestSchedulersPrintTheirOrigin(t *testing.T) {
	cases := []struct {
		name   string
		sys    System
		origin string
	}{
		{"sa", System{{A: 1, B: 2}, {A: 1, B: 4}}, "Sa"},
		{"sx", System{{A: 1, B: 7}, {A: 1, B: 7}, {A: 1, B: 14}}, "Sx(c=7)"},
		{"two-distinct", System{{A: 1, B: 3}, {A: 1, B: 5}}, "TwoDistinct"},
		{"edf", System{{A: 1, B: 2}, {A: 1, B: 3}}, "EDF"},
		{"exact", System{{A: 1, B: 2}, {A: 1, B: 3}}, "Exact"},
		{"portfolio", System{{A: 1, B: 7}, {A: 1, B: 7}, {A: 1, B: 14}}, "Sx(c=7)"},
		{"portfolio", System{{A: 1, B: 7}, {A: 1, B: 7}, {A: 1, B: 2}, {A: 1, B: 7}}, "TwoDistinct"},
		{"portfolio", System{{A: 2, B: 7}, {A: 2, B: 8}, {A: 1, B: 5}, {A: 1, B: 7}}, "EDF"},
		{"portfolio", System{{A: 1, B: 3}, {A: 1, B: 4}, {A: 2, B: 9}, {A: 1, B: 10}}, "Exact"},
		{"portfolio", System{{A: 1, B: 4, Later: []int{6}}, {A: 1, B: 4}}, "EDF"},
		{"portfolio", System{{A: 3, B: 15, Later: []int{20, 26}}, {A: 1, B: 8, Later: []int{10}},
			{A: 4, B: 18}, {A: 3, B: 10, Later: []int{14, 16}}}, "convert/Exact"},
	}
	for _, c := range cases {
		chain, err := Named(c.name)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := Solve(c.sys, chain)
		if err != nil {
			t.Fatalf("%s on %v: %v", c.name, c.sys, err)
		}
		if sch.Origin != c.origin {
			t.Errorf("%s on %v: Origin %q, want %q", c.name, c.sys, sch.Origin, c.origin)
		}
	}
}

func BenchmarkSa20Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	s := randomSystem(rng, 20, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sa(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEDF6Tasks(b *testing.B) {
	s := System{{A: 1, B: 6}, {A: 1, B: 7}, {A: 1, B: 8}, {A: 1, B: 9}, {A: 1, B: 10}, {A: 1, B: 11}}
	if _, err := edf(s, edfMaxSlots); err != nil {
		b.Fatalf("bench workload not EDF-schedulable: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edf(s, edfMaxSlots); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExact runs the backtracking search on the portfolio's Exact
// instance, the one TestSchedulersPrintTheirOrigin pins: no other
// member schedules it.
func BenchmarkExact(b *testing.B) {
	s := System{{A: 1, B: 3}, {A: 1, B: 4}, {A: 2, B: 9}, {A: 1, B: 10}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exact(s, exactMaxStates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveUndecided is what the default chain spends on a system
// it cannot decide: on {(3,12),(1,9),(1,9),(3,11),(3,12)} (density
// 0.995) every member fails and exact runs out of its state budget, so
// Solve reports ErrSchedulerFailed. It asserts no verdict, so a search
// that decides the system is measured by the same numbers.
func BenchmarkSolveUndecided(b *testing.B) {
	s := System{{A: 3, B: 12}, {A: 1, B: 9}, {A: 1, B: 9}, {A: 3, B: 11}, {A: 3, B: 12}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Solve(s, nil)
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
