package algebra

import (
	"fmt"
	"math"
)

// Convert converts a broadcast-file condition to a low-density nice
// conjunct of pinwheel conditions implying it — the paper's "conversion
// to nice pinwheel" problem, which it conjectures NP-hard and attacks
// with heuristics (§4.2: TR1, then Lemma 3 + rules R0–R5 + R4).
//
// The search is one ladder, weakest candidate first. For a₀ from m + r
// down to 1 it tries
//
//  1. the primary alone, pc(i, a₀, b₀): the largest b₀ whose closed-form
//     forcing meets every fault level — pc(m + r, d) for a constant
//     vector, Example 4's pc(5,9) and Example 6's pc(2,3) at a₀ = m + r;
//  2. the primary sized for level 0, plus for each unmet level a unit
//     helper with the largest window the forcing engine certifies — the
//     shape of TR2 and of the paper's R1/R5 conjunct for Example 4,
//     pc(1,2) ∧ pc(1,10), at a₀ = 1.
//
// TR1 is the primary alone at a₀ = 1, so it is on the ladder. Every
// candidate is certified by ImpliesBC. A later candidate replaces the
// best only at strictly lower density, so of equal-density candidates
// the weakest (largest a₀) is kept; the ladder stops at the first whose
// density is the condition's DensityLowerBound, which nothing beats.
// Conversion preserves correctness by construction, and optimality is
// best-effort (the paper's own rules are heuristic for the same reason).
func Convert(b BC) (NiceConjunct, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	var best NiceConjunct
	for a0 := min(b.M+b.R(), maxPrimaryA); a0 >= 1; a0-- {
		for _, candidate := range [...]func(BC, int) NiceConjunct{primaryOnly, primaryWithHelpers} {
			n := candidate(b, a0)
			if !ImpliesBC(n, b) || (best != nil && n.Density() >= best.Density()) {
				continue
			}
			if best = n; best.Density() <= b.DensityLowerBound() {
				return best, nil
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("algebra: no certified conversion found for %s", b)
	}
	return best, nil
}

// maxPrimaryA caps the a₀ the ladder starts from, bounding its length:
// a file with m + r past it starts below pc(m + r, d).
const maxPrimaryA = 64

// maxWindowMeeting returns the largest b such that pc(a, b) alone forces
// at least need grants into every window of w slots, or 0 if none does.
// MinGrants is monotone nonincreasing in b, so binary search applies.
func maxWindowMeeting(a, need, w int) int {
	if MinGrants(a, a, w) < need {
		return 0 // even the always-granted task cannot meet it
	}
	// For b > w the forcing is max(0, w − (b − a)), which drops below
	// need once b exceeds w + a − need; w + a is a safe search ceiling.
	lo, hi := a, w+a
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if MinGrants(a, mid, w) >= need {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// primaryOnly builds the candidate consisting of the single condition
// pc(i, a₀, b₀) with b₀ = min over fault levels of the largest window
// meeting that level, or nil when a level has none.
func primaryOnly(b BC, a0 int) NiceConjunct {
	b0 := math.MaxInt
	for j, d := range b.D {
		b0 = min(b0, maxWindowMeeting(a0, b.M+j, d))
	}
	if b0 < a0 {
		return nil
	}
	return NiceConjunct{{PC: PC{Task: b.Task, A: a0, B: b0}, MapsTo: b.Task}}
}

// primaryWithHelpers sizes the primary for fault level 0 only, then adds
// one unit helper per uncovered level, each with the largest window the
// forcing engine certifies, or nil when a level has none.
func primaryWithHelpers(b BC, a0 int) NiceConjunct {
	b0 := maxWindowMeeting(a0, b.M, b.D[0])
	if b0 < a0 {
		return nil
	}
	out := NiceConjunct{{PC: PC{Task: b.Task, A: a0, B: b0}, MapsTo: b.Task}}
	for j := 1; j < len(b.D); j++ {
		if certifiesLevel(out, b, j) {
			continue
		}
		c := maxHelperWindow(out, b, j)
		if c == 0 {
			return nil
		}
		out = append(out, Mapped{
			PC:     PC{Task: HelperName(b.Task, j), A: 1, B: c},
			MapsTo: b.Task,
		})
	}
	return out
}

// certifiesLevel reports whether the conjunct already forces level j of
// the condition.
func certifiesLevel(n NiceConjunct, b BC, j int) bool {
	return forcing(n, b)[b.D[j]] >= b.M+j
}

// maxHelperWindow binary-searches the largest unit-helper window c such
// that the conjunct plus pc(·, 1, c) certifies level j. Certification is
// monotone in c (a helper with a smaller window forces at least as many
// grants everywhere).
func maxHelperWindow(n NiceConjunct, b BC, j int) int {
	try := func(c int) bool {
		cand := append(append(NiceConjunct{}, n...), Mapped{
			PC:     PC{Task: HelperName(b.Task, j), A: 1, B: c},
			MapsTo: b.Task,
		})
		return certifiesLevel(cand, b, j)
	}
	hi := 2 * b.D[j]
	if !try(1) {
		return 0
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ConversionReport captures the quantities the paper reports for its
// examples: the density lower bound, the densities of the canned
// transformations, and the best conversion found.
type ConversionReport struct {
	Input            BC
	LowerBound       float64
	TR1Density       float64 // +Inf-like sentinel (negative) when TR1 fails
	TR2Density       float64
	Best             NiceConjunct
	BestDensity      float64
	WithinLowerBound float64 // BestDensity/LowerBound − 1
}

// Report runs the converter and the canned transformations on the
// condition and summarizes the outcome.
func Report(b BC) (ConversionReport, error) {
	rep := ConversionReport{Input: b, LowerBound: b.DensityLowerBound(), TR1Density: -1, TR2Density: -1}
	if n, err := TR1(b); err == nil {
		rep.TR1Density = n.Density()
	}
	if n, err := TR2(b); err == nil {
		rep.TR2Density = n.Density()
	}
	best, err := Convert(b)
	if err != nil {
		return rep, err
	}
	rep.Best = best
	rep.BestDensity = best.Density()
	rep.WithinLowerBound = rep.BestDensity/rep.LowerBound - 1
	return rep, nil
}
