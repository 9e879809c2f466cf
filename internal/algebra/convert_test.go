package algebra

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestConditionsExpansionEq3(t *testing.T) {
	b := BC{Task: "i", M: 2, D: []int{5, 6, 6}}
	conds := b.conditions()
	want := []PC{
		{Task: "i", A: 2, B: 5},
		{Task: "i", A: 3, B: 6},
		{Task: "i", A: 4, B: 6},
	}
	if len(conds) != len(want) {
		t.Fatalf("got %d conditions", len(conds))
	}
	for i := range want {
		if conds[i] != want[i] {
			t.Fatalf("condition %d = %v, want %v", i, conds[i], want[i])
		}
	}
}

func TestNormalizeExample5(t *testing.T) {
	// The paper's Example 5 uses R0 to simplify bc(i, 2, [5, 6, 6]) to
	// pc(2,5) ∧ pc(4,6). The forcing engine goes one step further than
	// the paper's hand derivation: pc(4,6) alone implies pc(2,5) (by R2
	// with x=1 and then R0), so it implies every condition of the
	// expansion.
	b := BC{Task: "i", M: 2, D: []int{5, 6, 6}}
	for _, c := range b.conditions() {
		if !implies(PC{Task: "i", A: 4, B: 6}, c) {
			t.Fatalf("engine no longer certifies pc(4,6) ⇒ %v", c)
		}
	}
}

func TestBCValidate(t *testing.T) {
	cases := []struct {
		b  BC
		ok bool
	}{
		{BC{M: 1, D: []int{2}}, true},
		{BC{M: 0, D: []int{2}}, false},
		{BC{M: 1, D: nil}, false},
		{BC{M: 3, D: []int{2}}, false},    // window too small for m
		{BC{M: 2, D: []int{5, 2}}, false}, // window too small for m+1
		{BC{M: 2, D: []int{5, 6, 6}}, true},
		{BC{M: 1, D: []int{maxLatency}}, true},
		{BC{M: 1, D: []int{maxLatency + 1}}, false}, // past the period bound
		{BC{M: 1, D: []int{2, maxLatency + 1}}, false},
	}
	for i, c := range cases {
		if err := c.b.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d (%v): err = %v, want ok=%v", i, c.b, err, c.ok)
		}
	}
}

func TestDensityLowerBound(t *testing.T) {
	b := BC{Task: "i", M: 5, D: []int{100, 105, 110, 115, 120}}
	// Paper Example 2: max{0.05, 0.0571, 0.0636, 0.0696, 0.075} = 0.075.
	if lb := b.DensityLowerBound(); !almostEqual(lb, 0.075) {
		t.Fatalf("lower bound = %v, want 0.075", lb)
	}
}

func TestTR1Example2(t *testing.T) {
	// Paper Example 2: bc(i, 5, [100,105,110,115,120]) ⇐ pc(i, 1, 13),
	// density 0.0769, within 2.5% of the 0.075 lower bound.
	b := BC{Task: "i", M: 5, D: []int{100, 105, 110, 115, 120}}
	n, err := TR1(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(n) != 1 || n[0].A != 1 || n[0].B != 13 {
		t.Fatalf("TR1 = %v, want pc(i,1,13)", n)
	}
	if !almostEqual(n.Density(), 1.0/13.0) {
		t.Fatalf("density = %v", n.Density())
	}
	if !ImpliesBC(n, b) {
		t.Fatal("TR1 output not certified")
	}
	within := n.Density()/b.DensityLowerBound() - 1
	if within > 0.026 {
		t.Fatalf("within lower bound = %.4f, paper reports 2.5%%", within)
	}
}

func TestTR2Example3(t *testing.T) {
	// Paper Example 3: bc(i, 6, [105, 110]): TR1 gives pc(1,15) at
	// 0.0667; TR2 gives pc(6,105) ∧ pc(1,110) at 0.0662, the winner.
	b := BC{Task: "i", M: 6, D: []int{105, 110}}
	tr1, err := TR1(b)
	if err != nil {
		t.Fatal(err)
	}
	if tr1[0].B != 15 {
		t.Fatalf("TR1 window = %d, want 15", tr1[0].B)
	}
	tr2, err := TR2(b)
	if err != nil {
		t.Fatal(err)
	}
	wantD := 6.0/105.0 + 1.0/110.0
	if !almostEqual(tr2.Density(), wantD) {
		t.Fatalf("TR2 density = %v, want %v", tr2.Density(), wantD)
	}
	if !ImpliesBC(tr2, b) {
		t.Fatal("TR2 output not certified")
	}
	best, err := Convert(b)
	if err != nil {
		t.Fatal(err)
	}
	if best.Density() > wantD+1e-9 {
		t.Fatalf("Convert density %v worse than TR2's %v", best.Density(), wantD)
	}
	// Paper: within 4.1% of the lower bound 0.0636.
	if w := best.Density()/b.DensityLowerBound() - 1; w > 0.042 {
		t.Fatalf("within lower bound = %.4f, paper reports ≤ 4.1%%", w)
	}
}

func TestConvertExample4(t *testing.T) {
	// Paper Example 4: bc(i, 4, [8, 9]); TR1 → density 1.0,
	// TR2 → 0.6111, R1+R5 manipulation → pc(1,2) ∧ pc(1,10) at 0.6.
	b := BC{Task: "i", M: 4, D: []int{8, 9}}
	tr1, err := TR1(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tr1.Density(), 1.0) {
		t.Fatalf("TR1 density = %v, want 1.0", tr1.Density())
	}
	tr2, err := TR2(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tr2.Density(), 4.0/8.0+1.0/9.0) {
		t.Fatalf("TR2 density = %v", tr2.Density())
	}
	// The paper's best manipulation reaches pc(1,2) ∧ pc(1,10) at 0.6.
	// Our systematic converter does strictly better: the single
	// condition pc(5,9) implies bc(4,[8,9]) (every 8-window is a
	// 9-window minus one slot, rule R2) and its density 5/9 ≈ 0.5556
	// meets the lower bound exactly. First certify the paper's conjunct,
	// then the improvement.
	paperBest := NiceConjunct{
		{PC: PC{Task: "i", A: 1, B: 2}, MapsTo: "i"},
		{PC: PC{Task: "i#1", A: 1, B: 10}, MapsTo: "i"},
	}
	if !ImpliesBC(paperBest, b) {
		t.Fatal("paper's pc(1,2) ∧ pc(1,10) not certified")
	}
	if !almostEqual(paperBest.Density(), 0.6) {
		t.Fatalf("paper conjunct density = %v", paperBest.Density())
	}
	best, err := Convert(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(best.Density(), 5.0/9.0) {
		t.Fatalf("Convert density = %v, want 5/9 (pc(5,9), beats the paper's 0.6)", best.Density())
	}
	if !almostEqual(best.Density(), b.DensityLowerBound()) {
		t.Fatal("pc(5,9) should meet the density lower bound exactly")
	}
	if len(best) != 1 || best[0].A != 5 || best[0].B != 9 {
		t.Fatalf("Convert = %v, want pc(i,5,9)", best)
	}
}

func TestConvertExample5Optimal(t *testing.T) {
	// Paper Example 5: bc(i, 2, [5, 6, 6]) ⇐ pc(i, 2, 3), optimal: the
	// nice density equals the lower bound 2/3. The ladder stops on the
	// weakest conjunct at that density, which pc(i, 2, 3) implies.
	b := BC{Task: "i", M: 2, D: []int{5, 6, 6}}
	best, err := Convert(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(best.Density(), 2.0/3.0) {
		t.Fatalf("Convert density = %v, want 2/3", best.Density())
	}
	if !almostEqual(best.Density(), b.DensityLowerBound()) {
		t.Fatal("Example 5 conversion should meet the density lower bound")
	}
	if len(best) != 1 || !implies(PC{Task: "i", A: 2, B: 3}, best[0].PC) {
		t.Fatalf("Convert = %v, want one condition pc(i,2,3) implies", best)
	}
}

func TestConvertExample6(t *testing.T) {
	// Paper Example 6: bc(i, 1, [2, 3]) ≡ pc(i, 2, 3) at 0.6667; naive
	// TR2 yields 0.8333.
	b := BC{Task: "i", M: 1, D: []int{2, 3}}
	tr2, err := TR2(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tr2.Density(), 1.0/2.0+1.0/3.0) {
		t.Fatalf("TR2 density = %v, want 0.8333", tr2.Density())
	}
	best, err := Convert(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(best.Density(), 2.0/3.0) {
		t.Fatalf("Convert density = %v, want 2/3", best.Density())
	}
	if len(best) != 1 || best[0].A != 2 || best[0].B != 3 {
		t.Fatalf("Convert = %v, want pc(i,2,3)", best)
	}
}

func TestConvertUnachievableBoundRemark(t *testing.T) {
	// Paper remark after TR2: bc(i, 2, [5, 7]) is not implied by any
	// nice conjunct of density ≤ 3/7. Our converter must therefore land
	// strictly above 3/7.
	b := BC{Task: "i", M: 2, D: []int{5, 7}}
	best, err := Convert(b)
	if err != nil {
		t.Fatal(err)
	}
	if best.Density() <= 3.0/7.0+1e-9 {
		t.Fatalf("Convert density %v ≤ 3/7, contradicting the paper's remark", best.Density())
	}
}

func TestConvertAlwaysCertifiedAndAboveLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 120; trial++ {
		m := 1 + rng.Intn(6)
		r := rng.Intn(4)
		d := make([]int, r+1)
		d[0] = m + rng.Intn(40)
		for j := 1; j <= r; j++ {
			d[j] = d[j-1] + rng.Intn(10)
			if d[j] < m+j {
				d[j] = m + j
			}
		}
		b := BC{Task: "f", M: m, D: d}
		if b.Validate() != nil {
			continue
		}
		best, err := Convert(b)
		if err != nil {
			t.Fatalf("Convert(%v): %v", b, err)
		}
		if !ImpliesBC(best, b) {
			t.Fatalf("Convert(%v) output %v not certified", b, best)
		}
		if best.Density() < b.DensityLowerBound()-1e-9 {
			t.Fatalf("Convert(%v) density %v below lower bound %v — engine unsound",
				b, best.Density(), b.DensityLowerBound())
		}
	}
}

// renamed returns the conjunct of file from as the conjunct of file to:
// the primary and every helper HelperName(from, j) renamed to match.
func renamed(n NiceConjunct, from, to string) NiceConjunct {
	out := slices.Clone(n)
	for k := range out {
		out[k].Task = to + strings.TrimPrefix(out[k].Task, from)
		out[k].MapsTo = to
	}
	return out
}

func TestConvertIgnoresTheTaskName(t *testing.T) {
	// A file named like a helper probe must convert as any other file:
	// m 1–8, r 0–5, d⁽⁰⁾ ≤ m + 120, level gaps ≤ 40.
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 1000; trial++ {
		m := 1 + rng.Intn(8)
		d := []int{m + rng.Intn(121)}
		for j, r := 1, rng.Intn(6); j <= r; j++ {
			d = append(d, max(d[j-1]+rng.Intn(41), m+j))
		}
		want, err := Convert(BC{Task: "i", M: m, D: d})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Convert(BC{Task: "probe", M: m, D: d})
		if err != nil {
			t.Fatal(err)
		}
		if got := renamed(got, "probe", "i"); !slices.Equal(got, want) {
			t.Fatalf("bc(%d, %v) converts to %v as probe, %v as i", m, d, got, want)
		}
	}
}

// FuzzConvert: over conditions with m ≤ 8, r ≤ 5, d⁽⁰⁾ ≤ 512 and level
// gaps up to 40, every conversion is certified by ImpliesBC and no
// lower than the density lower bound, a constant vector (d, …, d)
// converts to exactly pc(m + r, d), and the conjunct does not depend on
// the file's task name.
func FuzzConvert(f *testing.F) {
	f.Add("i", uint8(5), uint16(100), []byte{5, 5, 5, 5}) // Example 2
	f.Add("i", uint8(6), uint16(105), []byte{5})          // Example 3
	f.Add("i", uint8(4), uint16(8), []byte{1})            // Example 4
	f.Add("i", uint8(2), uint16(5), []byte{1, 0})         // Example 5
	f.Add("i", uint8(1), uint16(2), []byte{1})            // Example 6
	f.Add("i", uint8(4), uint16(450), []byte{0})          // TR1's pc(1,90) ties pc(5,450)
	f.Add("i", uint8(3), uint16(450), []byte{0, 0})       // IVHS(16)'s incident-01 at b = 5
	f.Add("probe", uint8(4), uint16(20), []byte{3, 7})    // the helper probe's old task name
	f.Fuzz(func(t *testing.T, task string, m8 uint8, d0 uint16, gaps []byte) {
		m := max(int(m8)%9, 1)
		d := []int{max(int(d0)%513, m)}
		for j, g := range gaps[:min(len(gaps), 5)] {
			d = append(d, max(d[j]+int(g)%41, m+j+1))
		}
		b := BC{Task: "i", M: m, D: d}
		best, err := Convert(b)
		if err != nil {
			t.Fatalf("Convert(%v): %v", b, err)
		}
		named, err := Convert(BC{Task: task, M: m, D: d})
		if err != nil {
			t.Fatalf("Convert(%v) as %q: %v", b, task, err)
		}
		if named := renamed(named, task, "i"); !slices.Equal(named, best) {
			t.Fatalf("Convert(%v) = %v, but %v as %q", b, best, named, task)
		}
		if !ImpliesBC(best, b) {
			t.Fatalf("Convert(%v) = %v, not certified", b, best)
		}
		if best.Density() < b.DensityLowerBound()-1e-9 {
			t.Fatalf("Convert(%v) = %v at density %v, below the lower bound %v",
				b, best, best.Density(), b.DensityLowerBound())
		}
		if slices.Min(d) == slices.Max(d) {
			want := PC{Task: "i", A: m + b.R(), B: d[0]}
			if len(best) != 1 || best[0].PC != want {
				t.Fatalf("Convert(%v) = %v, want %v", b, best, want)
			}
		}
	})
}

func TestReport(t *testing.T) {
	b := BC{Task: "i", M: 4, D: []int{8, 9}}
	rep, err := Report(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rep.LowerBound, 5.0/9.0) {
		t.Fatalf("lower bound = %v", rep.LowerBound)
	}
	if !almostEqual(rep.BestDensity, 5.0/9.0) {
		t.Fatalf("best density = %v, want 5/9", rep.BestDensity)
	}
	if rep.WithinLowerBound > 1e-9 {
		t.Fatalf("within = %v, want 0 (bound met exactly)", rep.WithinLowerBound)
	}
}

func TestStringRendering(t *testing.T) {
	b := BC{Task: "i", M: 2, D: []int{5, 6}}
	if got := b.String(); got != "bc(i; 2, [5, 6])" {
		t.Fatalf("BC string = %q", got)
	}
	n := NiceConjunct{
		{PC: PC{Task: "i", A: 6, B: 105}, MapsTo: "i"},
		{PC: PC{Task: "i#1", A: 1, B: 110}, MapsTo: "i"},
	}
	s := n.String()
	if !strings.Contains(s, "map(i#1, i)") {
		t.Fatalf("conjunct string missing map: %q", s)
	}
}

func BenchmarkConvertExample4(b *testing.B) {
	bc := BC{Task: "i", M: 4, D: []int{8, 9}}
	for i := 0; i < b.N; i++ {
		if _, err := Convert(bc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImpliesBC(b *testing.B) {
	bc := BC{Task: "i", M: 4, D: []int{8, 9}}
	n := NiceConjunct{
		{PC: PC{Task: "i", A: 1, B: 2}, MapsTo: "i"},
		{PC: PC{Task: "i#1", A: 1, B: 10}, MapsTo: "i"},
	}
	for i := 0; i < b.N; i++ {
		if !ImpliesBC(n, bc) {
			b.Fatal("not certified")
		}
	}
}
