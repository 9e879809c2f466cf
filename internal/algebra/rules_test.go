package algebra

import (
	"testing"
	"testing/quick"
)

// The paper's pinwheel algebra rules R0–R5 (Figure 8), written out as
// instances: the forcing engine must certify every one — the rule's
// assumed conditions must imply the condition it produces.

// certifiesPair reports whether p together with a helper task's
// condition h guarantees the file target (rules R4 and R5).
func certifiesPair(p, h, target PC) bool {
	groups := [][]PC{{p}, {h}}
	g := CombinedMinGrants(groups, maxWindowFor(groups, []int{target.B}))
	return g[target.B] >= target.A
}

func TestR0CertifiedByEngine(t *testing.T) {
	// R0: pc(i, a−x, b+y) ⇐ pc(i, a, b).
	f := func(aS, bS, xS, yS uint8) bool {
		a := 1 + int(aS)%6
		b := a + int(bS)%10
		x := int(xS) % a // keep a−x ≥ 1
		y := int(yS) % 8
		p := PC{Task: "i", A: a, B: b}
		return implies(p, PC{Task: "i", A: a - x, B: b + y})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestR1CertifiedByEngine(t *testing.T) {
	// R1: pc(i, na, nb) ⇐ pc(i, a, b).
	f := func(aS, bS, nS uint8) bool {
		a := 1 + int(aS)%6
		b := a + int(bS)%10
		n := 1 + int(nS)%5
		p := PC{Task: "i", A: a, B: b}
		return implies(p, PC{Task: "i", A: n * a, B: n * b})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestR2CertifiedByEngine(t *testing.T) {
	// R2: pc(i, a−x, b−x) ⇐ pc(i, a, b).
	f := func(aS, bS, xS uint8) bool {
		a := 2 + int(aS)%6
		b := a + int(bS)%10
		x := int(xS) % a
		p := PC{Task: "i", A: a, B: b}
		return implies(p, PC{Task: "i", A: a - x, B: b - x})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestR3CertifiedByEngine(t *testing.T) {
	// R3: pc(i, 1, ⌊b/a⌋) ⇒ pc(i, a, b) — the produced unit condition
	// implies the original.
	f := func(aS, bS uint8) bool {
		a := 1 + int(aS)%6
		b := a + int(bS)%20
		p := PC{Task: "i", A: a, B: b}
		return implies(PC{Task: "i", A: 1, B: b / a}, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestR4CertifiedByEngine(t *testing.T) {
	// R4: pc(i, a, b) ∧ pc(i, a+x, b+y) ⇐ pc(i, a, b) ∧ pc(i′, x, b+y).
	f := func(aS, bS, xS, yS uint8) bool {
		a := 1 + int(aS)%5
		b := a + int(bS)%8
		x := 1 + int(xS)%4
		y := int(yS) % 6
		helper := PC{Task: "i'", A: x, B: b + y}
		if helper.Validate() != nil {
			return true
		}
		return certifiesPair(PC{Task: "i", A: a, B: b}, helper, PC{Task: "i", A: a + x, B: b + y})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestR5CertifiedByEngine(t *testing.T) {
	// R5: pc(i, a, b) ∧ pc(i, na, nb−x) ⇐ pc(i, a, b) ∧ pc(i′, x, nb),
	// for 1 ≤ x < nb.
	f := func(aS, bS, nS, xS uint8) bool {
		a := 1 + int(aS)%4
		b := a + int(bS)%6
		n := 1 + int(nS)%4
		x := 1 + int(xS)%(n*b)
		target := PC{Task: "i", A: n * a, B: n*b - x}
		if x >= n*b || target.B < target.A {
			return true // outside the rule, or a degenerate target: nothing to certify
		}
		return certifiesPair(PC{Task: "i", A: a, B: b}, PC{Task: "i'", A: x, B: n * b}, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestR5PaperInstance(t *testing.T) {
	// Example 4 (R5 with n=5, x=1): pc(i,1,2) ∧ pc(i′,1,10) ⇒ pc(i,5,9).
	if !certifiesPair(PC{Task: "i", A: 1, B: 2}, PC{Task: "i'", A: 1, B: 10}, PC{Task: "i", A: 5, B: 9}) {
		t.Fatal("engine does not certify pc(i,1,2) ∧ pc(i′,1,10) ⇒ pc(i,5,9)")
	}
}
