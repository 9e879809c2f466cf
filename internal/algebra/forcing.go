package algebra

import (
	"math"
	"slices"
)

// The forcing engine.
//
// For a single condition pc(a, b), the minimum number of grants that any
// satisfying schedule places in any window of w consecutive slots has
// the closed form
//
//	g(w) = a·⌊w/b⌋ + max(0, w mod b − (b − a)),
//
// (split w into ⌊w/b⌋ full windows, each forcing a grants, plus a
// remainder of s slots, which overlaps any b-window by s and therefore
// contains at least a − (b − s) grants). The bound is tight: the
// periodic schedule granting slots [0, a) mod b achieves it.
//
// The members of a nice conjunct serving one broadcast file — the
// condition on the file's own scheduler task plus the helper tasks
// mapped to it — are one condition per task, so their grant streams are
// disjoint. The engine combines their forcing with three sound closure
// rules over the total grant stream:
//
//	sum:        g(w) ≥ Σ members' forcing(w)        (streams are disjoint)
//	split:      g(w₁+w₂) ≥ g(w₁) + g(w₂)            (adjacent windows)
//	shrink:     g(w) ≥ g(w+1) − 1                   (one slot, one grant)
//
// The shrink rule is what turns the paper's rule R5 into a mechanical
// consequence: from pc(i,1,2) ∧ pc(i′,1,10) the engine derives five
// grants in every 9-window by first counting six in every 10-window.
// The sum of tight closed forms is already superadditive, so a split
// gains only where shrink has raised a count. The engine splits only at
// the members' windows and their multiples; on every conjunct
// forcing_test.go draws, that gives what splitting everywhere gives.
// The fixpoint of these rules is a sound lower bound on true forcing (it
// may under-approximate, never over-approximate), so every implication
// the engine certifies is genuine. No window holds more grants than
// slots, so a count above its window proves the conjunct unsatisfiable:
// the engine stops there, and the conjunct vacuously forces everything.

// MinGrants returns the closed-form minimum number of grants a schedule
// satisfying pc(·, a, b) must place in any window of w ≥ 0 slots.
func MinGrants(a, b, w int) int {
	if w <= 0 {
		return 0
	}
	q, s := w/b, w%b
	g := a * q
	if over := s - (b - a); over > 0 {
		g += over
	}
	return g
}

// implies reports whether pc p alone forces pc q (on the same stream):
// every schedule satisfying p also satisfies q. It subsumes the paper's
// rules R0, R1, R2 and R3 and their compositions.
func implies(p, q PC) bool {
	return MinGrants(p.A, p.B, q.B) >= q.A
}

// CombinedMinGrants returns g[0..maxW], where g[w] lower-bounds the
// grants that every schedule satisfying all of members places in any
// window of w slots, counted over the union of their grant streams.
// members are a nice conjunct's members serving one file (ForFile):
// each is the one condition of its own scheduler task. The base is the
// sum of their closed forms; at every horizon w a split w₁ + (w − w₁)
// is tried at each member window and multiple w₁ below w. When the
// conjunct is unsatisfiable (some g(w) > w), every count from w = 1 on
// is math.MaxInt.
func CombinedMinGrants(members []PC, maxW int) []int {
	g := make([]int, maxW+1)
	var splits []int
	for _, c := range members {
		for w := 1; w <= maxW; w++ {
			g[w] += MinGrants(c.A, c.B, w)
		}
		for w1 := c.B; w1 < maxW; w1 += c.B {
			splits = append(splits, w1)
		}
	}
	slices.Sort(splits)
	splits = slices.Compact(splits)
	for changed := true; changed; {
		changed = false
		for w := 1; w <= maxW; w++ {
			for _, w1 := range splits {
				if w1 >= w {
					break
				}
				if v := g[w1] + g[w-w1]; v > g[w] {
					g[w] = v
					changed = true
				}
			}
			if g[w] > w {
				for k := 1; k <= maxW; k++ {
					g[k] = math.MaxInt
				}
				return g
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

// maxWindowFor returns the engine horizon for certifying a target
// window: twice the largest window in play, so that shrink derivations
// from just-larger windows (rule R5) are available.
func maxWindowFor(members []PC, targets []int) int {
	w := slices.Max(targets)
	for _, c := range members {
		w = max(w, c.B)
	}
	return 2*w + 2
}

// ImpliesBC reports whether the nice conjunct certifiably implies the
// broadcast-file condition: for every fault level j, the conjunct
// forces at least M+j grants for the file into every window of D[j]
// slots. Soundness comes from the forcing engine; a false return means
// "not certified", not "refuted".
func ImpliesBC(n NiceConjunct, b BC) bool {
	if n.Validate() != nil || b.Validate() != nil {
		return false
	}
	g := forcing(n, b)
	if g == nil {
		return false
	}
	for j, d := range b.D {
		if g[d] < b.M+j {
			return false
		}
	}
	return true
}

// forcing returns the combined forcing vector of the conjunct's members
// serving the condition's file, up to the engine horizon for its
// windows, or nil when no member serves it.
func forcing(n NiceConjunct, b BC) []int {
	members := n.ForFile(b.Task)
	if len(members) == 0 {
		return nil
	}
	return CombinedMinGrants(members, maxWindowFor(members, b.D))
}
