package algebra

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
// For a conjunct of conditions serving one broadcast file — conditions
// on the file's own scheduler task plus helper tasks mapped to it — the
// engine combines per-condition forcing with three sound closure rules
// over the total grant stream:
//
//	sum:        g(w) ≥ Σ per-task forcing(w)        (streams are disjoint)
//	split:      g(w₁+w₂) ≥ g(w₁) + g(w₂)            (adjacent windows)
//	shrink:     g(w) ≥ g(w+1) − 1                   (one slot, one grant)
//
// The shrink rule is what turns the paper's rule R5 into a mechanical
// consequence: from pc(i,1,2) ∧ pc(i′,1,10) the engine derives five
// grants in every 9-window by first counting six in every 10-window.
// The fixpoint of these rules is a sound lower bound on true forcing
// (it may under-approximate, never over-approximate), so every
// implication the engine certifies is genuine.

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

// forcingSplitCap bounds the window length up to which the quadratic
// exhaustive split search runs; beyond it only splits at structurally
// interesting points (multiples of condition windows) are tried, keeping
// the engine sound while taming cost on broadcast-scale windows.
const forcingSplitCap = 4096

// CombinedMinGrants returns g[0..maxW] where g[w] lower-bounds the
// number of grants every schedule satisfying all conditions (grouped by
// scheduler task) places in any window of w slots, for the union of the
// tasks' grant streams.
func CombinedMinGrants(groups [][]PC, maxW int) []int {
	g := make([]int, maxW+1)
	// Base: sum over tasks of per-task forcing; per task, the max over
	// its own conditions (one stream must satisfy all of them).
	for w := 1; w <= maxW; w++ {
		total := 0
		for _, conds := range groups {
			best := 0
			for _, c := range conds {
				if v := MinGrants(c.A, c.B, w); v > best {
					best = v
				}
			}
			total += best
		}
		g[w] = total
	}
	// Candidate split points for large windows: condition windows and
	// their multiples.
	var splitPoints []int
	if maxW > forcingSplitCap {
		seen := map[int]bool{}
		for _, conds := range groups {
			for _, c := range conds {
				for m := c.B; m <= maxW; m += c.B {
					if !seen[m] {
						seen[m] = true
						splitPoints = append(splitPoints, m)
					}
				}
			}
		}
	}
	// Fixpoint of split and shrink closure.
	for changed := true; changed; {
		changed = false
		// split: ascending pass.
		for w := 2; w <= maxW; w++ {
			if maxW <= forcingSplitCap {
				for w1 := 1; w1 <= w/2; w1++ {
					if v := g[w1] + g[w-w1]; v > g[w] {
						g[w] = v
						changed = true
					}
				}
			} else {
				for _, w1 := range splitPoints {
					if w1 >= w {
						break
					}
					if v := g[w1] + g[w-w1]; v > g[w] {
						g[w] = v
						changed = true
					}
				}
			}
		}
		// shrink: descending pass.
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
func maxWindowFor(groups [][]PC, targets []int) int {
	max := 0
	for _, conds := range groups {
		for _, c := range conds {
			if c.B > max {
				max = c.B
			}
		}
	}
	for _, t := range targets {
		if t > max {
			max = t
		}
	}
	return 2*max + 2
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
	groups := groupByTask(n.ForFile(b.Task))
	if len(groups) == 0 {
		return nil
	}
	return CombinedMinGrants(groups, maxWindowFor(groups, b.D))
}

// groupByTask buckets conditions by scheduler task, preserving order.
func groupByTask(conds []PC) [][]PC {
	idx := map[string]int{}
	var groups [][]PC
	for _, c := range conds {
		if i, ok := idx[c.Task]; ok {
			groups[i] = append(groups[i], c)
		} else {
			idx[c.Task] = len(groups)
			groups = append(groups, []PC{c})
		}
	}
	return groups
}
