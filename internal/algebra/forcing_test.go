package algebra

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bruteMinGrants computes, by exhaustive enumeration of all cyclic
// schedules of the given period that satisfy pc(a, b), the true minimum
// number of grants in any w-window. Used to certify the closed form.
func bruteMinGrants(a, b, w, period int, t *testing.T) int {
	best := -1
	slots := make([]bool, period)
	var rec func(i int)
	count := func(start, length int) int {
		c := 0
		for k := 0; k < length; k++ {
			if slots[(start+k)%period] {
				c++
			}
		}
		return c
	}
	rec = func(i int) {
		if i == period {
			// Check pc(a, b) cyclically.
			for s := 0; s < period; s++ {
				if count(s, b) < a {
					return
				}
			}
			for s := 0; s < period; s++ {
				if c := count(s, w); best < 0 || c < best {
					best = c
				}
			}
			return
		}
		slots[i] = false
		rec(i + 1)
		slots[i] = true
		rec(i + 1)
	}
	rec(0)
	if best < 0 {
		t.Fatalf("no schedule of period %d satisfies pc(%d,%d)", period, a, b)
	}
	return best
}

func TestMinGrantsClosedFormMatchesBruteForce(t *testing.T) {
	// Periods are multiples of b so cyclic enumeration covers the
	// canonical worst cases.
	cases := []struct{ a, b, w, period int }{
		{1, 2, 3, 4},
		{1, 2, 9, 4},
		{1, 3, 5, 6},
		{2, 5, 7, 10},
		{2, 5, 4, 10},
		{3, 4, 6, 8},
		{1, 4, 11, 8},
		{2, 3, 8, 6},
	}
	for _, c := range cases {
		got := MinGrants(c.a, c.b, c.w)
		want := bruteMinGrants(c.a, c.b, c.w, c.period, t)
		if got != want {
			t.Errorf("MinGrants(%d,%d,%d) = %d, brute force = %d", c.a, c.b, c.w, got, want)
		}
	}
}

func TestMinGrantsBasics(t *testing.T) {
	cases := []struct{ a, b, w, want int }{
		{1, 2, 0, 0},
		{1, 2, 1, 0},
		{1, 2, 2, 1},
		{1, 2, 10, 5},
		{2, 5, 5, 2},
		{2, 5, 10, 4},
		{2, 5, 9, 3},  // R2: one slot fewer loses at most one grant
		{2, 5, 4, 1},  // remainder window overlap
		{5, 5, 3, 3},  // always-granted task
		{1, 10, 9, 0}, // can dodge a window one slot short
	}
	for _, c := range cases {
		if got := MinGrants(c.a, c.b, c.w); got != c.want {
			t.Errorf("MinGrants(%d,%d,%d) = %d, want %d", c.a, c.b, c.w, got, c.want)
		}
	}
}

func TestMinGrantsMonotoneInWindowAndB(t *testing.T) {
	for a := 1; a <= 4; a++ {
		for b := a; b <= 12; b++ {
			prev := 0
			for w := 0; w <= 40; w++ {
				g := MinGrants(a, b, w)
				if g < prev {
					t.Fatalf("MinGrants(%d,%d,·) not monotone at w=%d", a, b, w)
				}
				prev = g
			}
		}
	}
	// Monotone nonincreasing in b (a weaker condition forces less).
	for a := 1; a <= 3; a++ {
		for w := 1; w <= 30; w++ {
			for b := a; b < 20; b++ {
				if MinGrants(a, b, w) < MinGrants(a, b+1, w) {
					t.Fatalf("MinGrants not antitone in b at a=%d b=%d w=%d", a, b, w)
				}
			}
		}
	}
}

func TestImpliesKnownCases(t *testing.T) {
	cases := []struct {
		p, q PC
		want bool
	}{
		{PC{A: 1, B: 2}, PC{A: 1, B: 3}, true},   // R0
		{PC{A: 1, B: 2}, PC{A: 2, B: 4}, true},   // R1
		{PC{A: 2, B: 5}, PC{A: 1, B: 4}, true},   // R2
		{PC{A: 2, B: 3}, PC{A: 1, B: 2}, true},   // paper Example 6
		{PC{A: 1, B: 2}, PC{A: 2, B: 3}, false},  // converse fails
		{PC{A: 1, B: 3}, PC{A: 1, B: 2}, false},  // stronger window
		{PC{A: 1, B: 2}, PC{A: 4, B: 8}, true},   // R1, n = 4
		{PC{A: 2, B: 3}, PC{A: 4, B: 6}, true},   // paper Example 5 step
		{PC{A: 2, B: 3}, PC{A: 2, B: 5}, true},   // paper Example 5 step (R0)
		{PC{A: 1, B: 1}, PC{A: 7, B: 7}, true},   // saturation
		{PC{A: 1, B: 10}, PC{A: 1, B: 9}, false}, // cannot shrink a unit window
	}
	for _, c := range cases {
		if got := implies(c.p, c.q); got != c.want {
			t.Errorf("implies(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestCombinedMinGrantsR5Derivation(t *testing.T) {
	// The paper's Example 4 manipulation: pc(i,1,2) ∧ pc(i′,1,10) forces
	// 5 grants in every 9-window (6 in every 10-window, minus one slot).
	g := CombinedMinGrants([]PC{{Task: "i", A: 1, B: 2}, {Task: "i'", A: 1, B: 10}}, 22)
	if g[10] < 6 {
		t.Fatalf("g[10] = %d, want ≥ 6", g[10])
	}
	if g[9] < 5 {
		t.Fatalf("g[9] = %d, want ≥ 5 (rule R5)", g[9])
	}
	// Soundness ceiling: g must not exceed what the periodic witness
	// grants. Task i at even slots + helper every 10 slots gives exactly
	// 6 in some 10-window.
	if g[10] > 6 {
		t.Fatalf("g[10] = %d exceeds achievable 6", g[10])
	}
}

// exhaustiveMinGrants is the forcing closure split at every point: the
// members' closed forms summed, then every split w₁ + (w − w₁) with
// w₁ ≤ w/2 and every shrink, to a fixpoint. It is the reference
// CombinedMinGrants is held to.
func exhaustiveMinGrants(members []PC, maxW int) []int {
	g := make([]int, maxW+1)
	for w := 1; w <= maxW; w++ {
		for _, c := range members {
			g[w] += MinGrants(c.A, c.B, w)
		}
	}
	for changed := true; changed; {
		changed = false
		for w := 2; w <= maxW; w++ {
			for w1 := 1; w1 <= w/2; w1++ {
				if v := g[w1] + g[w-w1]; v > g[w] {
					g[w] = v
					changed = true
				}
			}
		}
		for w := maxW - 1; w >= 1; w-- {
			if v := g[w+1] - 1; v > g[w] {
				g[w] = v
				changed = true
			}
		}
	}
	return g
}

func TestCombinedMinGrantsMatchesExhaustiveSplits(t *testing.T) {
	// Seeded conjuncts of density at most 1, which the engine never
	// refutes: 1–5 members, windows up to 80, horizons up to 600. The
	// first member is a primary of any height, the rest mostly unit
	// helpers, the shape Convert builds.
	rng := rand.New(rand.NewSource(45))
	for held := 0; held < 5000; {
		members := make([]PC, 1+rng.Intn(5))
		density := new(big.Rat)
		for k := range members {
			b := 1 + rng.Intn(80)
			a := 1 + rng.Intn(b)
			if k > 0 && rng.Intn(2) == 0 {
				a = 1
			}
			members[k] = PC{Task: HelperName("i", k), A: a, B: b}
			density.Add(density, big.NewRat(int64(a), int64(b)))
		}
		if density.Cmp(big.NewRat(1, 1)) > 0 {
			continue
		}
		maxW := 1 + rng.Intn(600)
		got, ref := CombinedMinGrants(members, maxW), exhaustiveMinGrants(members, maxW)
		for w := range got {
			if got[w] != ref[w] {
				t.Fatalf("%v up to %d: g[%d] = %d, exhaustive splits give %d", members, maxW, w, got[w], ref[w])
			}
		}
		held++
	}
}

func TestUnsatisfiableConjunctForcesEverything(t *testing.T) {
	// Each conjunct asks for more grants than some window has slots. The
	// fixpoint stops there, with no count near the edge of int64, and
	// certifies every condition: the conjunct vacuously forces them all.
	for _, members := range [][]PC{
		{{Task: "i", A: 1, B: 1}, {Task: "i#1", A: 1, B: 1}},
		{{Task: "i", A: 1, B: 2}, {Task: "i#1", A: 1, B: 1}},
		{{Task: "i", A: 3, B: 4}, {Task: "i#1", A: 1, B: 2}},
	} {
		g := CombinedMinGrants(members, 64)
		for w := 1; w < len(g); w++ {
			if g[w] != math.MaxInt {
				t.Fatalf("%v: g[%d] = %d, want math.MaxInt", members, w, g[w])
			}
		}
		n := NiceConjunct{{PC: members[0], MapsTo: "i"}, {PC: members[1], MapsTo: "i"}}
		for _, b := range []BC{
			{Task: "i", M: 1, D: []int{1}},
			{Task: "i", M: 4, D: []int{8, 9}},
			{Task: "i", M: 2, D: []int{5, 6, 6}},
			{Task: "i", M: 50, D: []int{60, 70}},
		} {
			if !ImpliesBC(n, b) {
				t.Fatalf("unsatisfiable %v does not certify %v", n, b)
			}
		}
	}
}

func TestCombinedMinGrantsSuperadditive(t *testing.T) {
	g := CombinedMinGrants([]PC{{Task: "i", A: 2, B: 7}}, 40)
	for w1 := 1; w1 < 20; w1++ {
		for w2 := 1; w2+w1 <= 40; w2++ {
			if g[w1]+g[w2] > g[w1+w2] {
				t.Fatalf("superadditivity violated at %d+%d", w1, w2)
			}
		}
	}
}

func TestCombinedMinGrantsSoundAgainstSchedules(t *testing.T) {
	// Soundness: for concrete cyclic schedules satisfying the conjunct,
	// every w-window must contain at least g[w] total grants.
	rng := rand.New(rand.NewSource(9))
	maxW := 30
	g := CombinedMinGrants([]PC{{Task: "a", A: 1, B: 3}, {Task: "b", A: 1, B: 5}}, maxW)
	// Build random valid period-15 schedules: task a on one residue
	// mod 3, task b on one residue mod 5.
	for trial := 0; trial < 20; trial++ {
		offA, offB := rng.Intn(3), rng.Intn(5)
		period := 15
		grants := make([]int, period) // grants per slot (0 or 1 per task)
		for s := 0; s < period; s++ {
			if s%3 == offA {
				grants[s]++
			}
			if s%5 == offB && s%3 != offA {
				grants[s]++
			}
		}
		// Only keep trials where the layout is actually valid for b
		// (collisions may break b's condition); check first.
		valid := true
		for s := 0; s < period && valid; s++ {
			cb := 0
			for k := 0; k < 5; k++ {
				t0 := (s + k) % period
				if t0%5 == offB && t0%3 != offA {
					cb++
				}
			}
			if cb < 1 {
				valid = false
			}
		}
		if !valid {
			continue
		}
		for s := 0; s < period; s++ {
			for w := 1; w <= maxW; w++ {
				total := 0
				for k := 0; k < w; k++ {
					total += grants[(s+k)%period]
				}
				if total < g[w] {
					t.Fatalf("engine overclaims: g[%d]=%d but schedule window has %d", w, g[w], total)
				}
			}
		}
	}
}

func TestImpliesBC(t *testing.T) {
	b := BC{Task: "i", M: 2, D: []int{5, 6, 6}}
	if !ImpliesBC(NiceConjunct{{PC: PC{Task: "i", A: 2, B: 3}, MapsTo: "i"}}, b) {
		t.Fatal("pc(2,3) should imply bc(2,[5,6,6]) (paper Example 5)")
	}
	if ImpliesBC(NiceConjunct{{PC: PC{Task: "i", A: 1, B: 3}, MapsTo: "i"}}, b) {
		t.Fatal("pc(1,3) must not imply bc(2,[5,6,6])")
	}
	// Mapped helpers count toward the file.
	b2 := BC{Task: "i", M: 4, D: []int{8, 9}}
	n := NiceConjunct{
		{PC: PC{Task: "i", A: 1, B: 2}, MapsTo: "i"},
		{PC: PC{Task: "i#1", A: 1, B: 10}, MapsTo: "i"},
	}
	if !ImpliesBC(n, b2) {
		t.Fatal("paper Example 4's optimized conjunct not certified")
	}
	// A condition mapped to a different file must not count.
	other := NiceConjunct{
		{PC: PC{Task: "i", A: 1, B: 2}, MapsTo: "i"},
		{PC: PC{Task: "j#1", A: 1, B: 10}, MapsTo: "j"},
	}
	if ImpliesBC(other, b2) {
		t.Fatal("helper mapped to another file counted toward this one")
	}
}

func TestLargeWindowRestrictedSplits(t *testing.T) {
	// The engine splits only at member windows and their multiples, and
	// must remain sound and still certify straightforward cases.
	g := CombinedMinGrants([]PC{{Task: "i", A: 1, B: 1000}}, 6000)
	if g[5000] < 5 {
		t.Fatalf("g[5000] = %d, want ≥ 5", g[5000])
	}
	if g[999] != 0 {
		t.Fatalf("g[999] = %d, want 0", g[999])
	}
}
