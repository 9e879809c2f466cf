package core

import (
	"fmt"

	"pinbcast/internal/pinwheel"
)

// Worst-case error-recovery delay analysis (§2.3, Lemmas 1 and 2,
// Figure 7).
//
// The client model follows the paper: a client starts listening at an
// arbitrary slot s and retrieves file i. The adversary destroys up to r
// of the file's block receptions, choosing which ones to maximize the
// completion time. The *delay* attributed to r errors is
//
//	D_r = max over s of [C_r(s) − C_0(s)],
//
// where C_r(s) is the adversarial completion time with r errors.
//
// For an AIDA program (any M distinct blocks reconstruct; rotation
// makes any M+r consecutive receptions distinct when M+r ≤ N), each
// destroyed reception costs exactly one additional occurrence of the
// file, so C_r(s) is the time of the (M+r)-th occurrence after s and
// D_r is the maximum sum of r consecutive occurrence gaps — bounded by
// r·δ, Lemma 2.
//
// For a flat (non-dispersed) program the client needs every one of the
// file's M specific blocks, so the adversary concentrates all r kills
// on a single block — the one whose recurrence is slowest — and
// D_r = r·τ for a program that transmits each block once per period τ,
// Lemma 1.

// AIDADelay returns D_r for file i of an AIDA program: the largest
// distance from occurrence k+M−1 to occurrence k+M−1+r over every k,
// the worst pinwheel.Latencies finds with need r. It requires M+r ≤ N
// (the program's dispersal width); beyond that consecutive receptions
// repeat sequence numbers and the bound no longer applies.
func AIDADelay(p *Program, file, r int) (int, error) {
	if err := p.tolerates(file, r); err != nil {
		return 0, err
	}
	occ := p.occ[file]
	_, d := pinwheel.Latencies(occ, p.Period, r, 0, len(occ))
	return d, nil
}

// FlatDelay returns D_r for file i of a flat (non-dispersed) program,
// in which the client must capture each of the file's M specific
// blocks. The adversary's optimal strategy is to spend all r kills on
// one block; the delay is r times the worst per-block recurrence
// distance (r·τ when each block appears once per period τ). Rotation
// sends block k mod N on the file's k-th occurrence, so a block recurs
// N occurrences on.
func FlatDelay(p *Program, file, r int) (int, error) {
	if r < 0 {
		return 0, fmt.Errorf("core: negative error count %d", r)
	}
	occ := p.occ[file]
	_, worst := pinwheel.Latencies(occ, p.Period, p.Files[file].N, 0, len(occ))
	return r * worst, nil
}

// Lemma1Bound returns the paper's Lemma 1 upper bound r·τ for a flat
// program with broadcast period τ.
func Lemma1Bound(r, tau int) int { return r * tau }

// Lemma2Bound returns the paper's Lemma 2 upper bound r·δ for an
// AIDA-based program in which blocks of the file are at most δ apart.
func Lemma2Bound(r, delta int) int { return r * delta }

// DelayTable computes the Figure 7 comparison for a pair of programs
// over error counts 0..maxErrors: worst-case delay across all files,
// with IDA (AIDA program) and without (flat program).
type DelayTable struct {
	Errors  []int
	WithIDA []int
	Without []int
}

// BuildDelayTable evaluates both programs. The AIDA program's files must
// tolerate maxErrors (M+maxErrors ≤ N).
func BuildDelayTable(aida, flat *Program, maxErrors int) (*DelayTable, error) {
	t := &DelayTable{}
	for r := 0; r <= maxErrors; r++ {
		wcIDA, wcFlat := 0, 0
		for i := range aida.Files {
			d, err := AIDADelay(aida, i, r)
			if err != nil {
				return nil, err
			}
			if d > wcIDA {
				wcIDA = d
			}
		}
		for i := range flat.Files {
			d, err := FlatDelay(flat, i, r)
			if err != nil {
				return nil, err
			}
			if d > wcFlat {
				wcFlat = d
			}
		}
		t.Errors = append(t.Errors, r)
		t.WithIDA = append(t.WithIDA, wcIDA)
		t.Without = append(t.Without, wcFlat)
	}
	return t, nil
}
