package core

import (
	"fmt"
	"math"
	"slices"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/pinwheel"
)

// Bandwidth sizing (§3.2). Bandwidth B is measured in blocks per time
// unit; file latencies Tᵢ in time units; one slot transmits one block,
// so file i's pinwheel window is B·Tᵢ slots.

// NecessaryBandwidth returns Σ (mᵢ+rᵢ)/Tᵢ, the clearly-necessary
// bandwidth (the paper's lower bound; with all rᵢ = 0 it is Σ mᵢ/Tᵢ).
// It sizes each file as (mᵢ+rᵢ, Tᵢ) only, whatever its Latencies.
func NecessaryBandwidth(files []FileSpec) float64 {
	total := 0.0
	for _, f := range files {
		total += float64(f.Demand()) / float64(f.Latency)
	}
	return total
}

// SufficientBandwidth returns ⌈10/7 · Σ (mᵢ+rᵢ)/Tᵢ⌉ — Equation 1 (all
// rᵢ = 0), Equation 2 (uniform r), and the per-file-rᵢ generalization,
// which coincide in this form. At this bandwidth the pinwheel system has
// density at most 7/10 and is schedulable by Chan & Chin's result; the
// overhead above necessary is at most 43%. Like NecessaryBandwidth it
// sizes (mᵢ+rᵢ, Tᵢ) only, never a latency vector.
func SufficientBandwidth(files []FileSpec) int {
	return int(math.Ceil(10.0 / 7.0 * NecessaryBandwidth(files)))
}

// TaskSystem returns the pinwheel system of §3.2 for bandwidth B:
// task i = (mᵢ+rᵢ, B·Tᵢ), or for a file with a latency vector the task
// with fault levels of §4, its levels B·d⁽ʲ⁾ slots.
func TaskSystem(files []FileSpec, b int) pinwheel.System {
	sys := make(pinwheel.System, len(files))
	for i, f := range files {
		sys[i] = f.task(b)
	}
	return sys
}

// ErrNoBandwidth is returned when no feasible bandwidth is found below
// the search ceiling. It wraps the shared bandwidth sentinel so facade
// callers can classify it with errors.Is.
var ErrNoBandwidth = fmt.Errorf("core: no feasible bandwidth found: %w", bcerr.ErrBandwidth)

// MinBandwidth returns the smallest bandwidth at which the scheduler
// portfolio actually constructs a program, scanning upward from the
// ceiling of the necessary bandwidth. SufficientBandwidth is always an
// upper bound in the density-test sense; the scan measures how much of
// the 43% sizing margin the constructive schedulers recover. A file
// with a latency vector is ErrBadSpec: both bounds ignore its levels.
func MinBandwidth(files []FileSpec) (int, error) {
	if err := ValidateAll(files); err != nil {
		return 0, err
	}
	if i := slices.IndexFunc(files, func(f FileSpec) bool { return f.Latencies != nil }); i >= 0 {
		return 0, fmt.Errorf("core: file %q has a latency vector, which no bandwidth search sizes: %w", files[i].Name, bcerr.ErrBadSpec)
	}
	lo := max(1, int(math.Ceil(NecessaryBandwidth(files)-1e-9)))
	hi := max(lo, SufficientBandwidth(files))
	// Allow a margin above the Eq-1/Eq-2 value in case the portfolio
	// needs it (it has not in any experiment so far). The scan uses the
	// budget-capped portfolio: near-infeasible bandwidths would
	// otherwise burn the full EDF horizon and exact-search budget per
	// candidate.
	ceiling := 2*hi + 1
	for b := lo; b <= ceiling; b++ {
		sys := TaskSystem(files, b)
		if sys.Validate() != nil {
			continue // window smaller than demand at this bandwidth
		}
		if _, err := pinwheel.Solve(sys, pinwheel.Capped); err == nil {
			return b, nil
		}
	}
	return 0, fmt.Errorf("%w (searched %d..%d)", ErrNoBandwidth, lo, ceiling)
}

// Overhead returns the fractional bandwidth overhead of B over the
// necessary bandwidth.
func Overhead(files []FileSpec, b int) float64 {
	return float64(b)/NecessaryBandwidth(files) - 1
}
