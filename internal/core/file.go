// Package core implements the paper's primary contribution: the
// construction of fault-tolerant real-time broadcast-disk programs.
//
// A broadcast disk transmits one block per time slot. Each file i is
// AIDA-dispersed so that any Blocks (mᵢ) of its transmitted blocks
// reconstruct it; to tolerate rᵢ per-retrieval block errors the server
// schedules mᵢ+rᵢ block slots of the file into every window of B·Tᵢ
// slots, where Tᵢ is the file's latency constraint and B the channel
// bandwidth in blocks per time unit. That demand is exactly the
// pinwheel task (mᵢ+rᵢ, B·Tᵢ) (§3.2); bandwidth sizing comes from
// Chan & Chin's 7/10 density bound (Equations 1 and 2); and a
// generalized file with a per-fault-level latency vector d⃗ (§4) is a
// pinwheel task with fault levels, mᵢ + j grants in every B·d⁽ʲ⁾ slots,
// built by the same one builder: files → pinwheel.Solve → Program.
package core

import (
	"fmt"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/pinwheel"
)

// FileSpec describes a fault-tolerant real-time broadcast file (§3.2):
// a size in blocks, a latency constraint (one per fault level, §4.1, with
// Latencies), and a uniform fault-tolerance requirement.
type FileSpec struct {
	Name    string
	Blocks  int // mᵢ: blocks sufficient to reconstruct the file (dispersal threshold)
	Latency int // Tᵢ: retrieval deadline in time units
	Faults  int // rᵢ: block transmission errors tolerated per retrieval
	// DispersalWidth is the number of distinct dispersed blocks the
	// server rotates through (the AIDA N). Zero means Blocks+Faults,
	// the minimum that preserves per-retrieval distinctness.
	DispersalWidth int
	// Latencies is the §4 latency vector d⃗ = [d⁽⁰⁾, …, d⁽ʳ⁾] in
	// Latency's time unit: d⁽ʲ⁾ is the worst-case latency tolerable in
	// the presence of j faults. It has Faults+1 levels and ends at
	// Latency; nil means Latency at every level.
	Latencies []int
}

// Validate checks the specification.
func (f FileSpec) Validate() error {
	switch {
	case f.Blocks < 1:
		return fmt.Errorf("core: file %q has %d blocks: %w", f.Name, f.Blocks, bcerr.ErrBadSpec)
	case f.Latency < 1:
		return fmt.Errorf("core: file %q has latency %d: %w", f.Name, f.Latency, bcerr.ErrBadSpec)
	case f.Faults < 0:
		return fmt.Errorf("core: file %q has negative fault tolerance: %w", f.Name, bcerr.ErrBadSpec)
	case f.DispersalWidth != 0 && f.DispersalWidth < f.Blocks+f.Faults:
		return fmt.Errorf("core: file %q dispersal width %d below blocks+faults %d: %w",
			f.Name, f.DispersalWidth, f.Blocks+f.Faults, bcerr.ErrBadSpec)
	case f.DispersalWidth > 256 || f.Blocks+f.Faults > 256:
		return fmt.Errorf("core: file %q dispersal exceeds GF(2⁸) limit of 256: %w", f.Name, bcerr.ErrBadSpec)
	case f.Latencies != nil && (len(f.Latencies) != f.Faults+1 || f.Latencies[f.Faults] != f.Latency):
		return fmt.Errorf("core: file %q latency vector %v does not have faults+1 = %d levels ending at latency %d: %w",
			f.Name, f.Latencies, f.Faults+1, f.Latency, bcerr.ErrBadSpec)
	}
	return nil
}

// levels returns the file's latency vector in slots at bandwidth b.
func (f FileSpec) levels(b int) []int {
	d := make([]int, len(f.Latencies))
	for j, dj := range f.Latencies {
		d[j] = b * dj
	}
	return d
}

// task is the file's condition on its own stream at bandwidth b: mᵢ + j
// grants in every b·d⁽ʲ⁾ slots, distinct blocks under AIDA rotation over
// mᵢ + rᵢ. In slots, a later level k implies level j when d⁽ᵏ⁾ − k ≤
// d⁽ʲ⁾ − j (a d⁽ʲ⁾-slot window holds a d⁽ᵏ⁾-slot one, or lies in one with
// at most d⁽ᵏ⁾ − d⁽ʲ⁾ grants outside it), so after scaling the task
// starts at the first level j₀ no later level implies: a nil or constant
// vector is the ordinary task (mᵢ + rᵢ, b·Tᵢ).
func (f FileSpec) task(b int) pinwheel.Task {
	if f.Latencies == nil {
		return pinwheel.Task{Name: f.Name, A: f.Demand(), B: b * f.Latency}
	}
	d, j0 := f.levels(b), f.Faults
	for j := j0 - 1; j >= 0; j-- { // d[j0] − j0 is the least d⁽ᵏ⁾ − k past j
		if implied := d[j0]-j0 <= d[j]-j; !implied {
			j0 = j
		}
	}
	return pinwheel.Task{Name: f.Name, A: f.Blocks + j0, B: d[j0], Later: d[j0+1:]}
}

// Width returns the effective dispersal width N.
func (f FileSpec) Width() int {
	if f.DispersalWidth != 0 {
		return f.DispersalWidth
	}
	return f.Blocks + f.Faults
}

// Demand returns the per-window block demand mᵢ+rᵢ.
func (f FileSpec) Demand() int { return f.Blocks + f.Faults }

// ValidateAll validates a slice of specifications and checks name
// uniqueness.
func ValidateAll(files []FileSpec) error {
	if len(files) == 0 {
		return fmt.Errorf("core: no files: %w", bcerr.ErrBadSpec)
	}
	seen := make(map[string]bool, len(files))
	for _, f := range files {
		if err := f.Validate(); err != nil {
			return err
		}
		if f.Name != "" {
			if seen[f.Name] {
				return fmt.Errorf("core: duplicate file name %q: %w", f.Name, bcerr.ErrBadSpec)
			}
			seen[f.Name] = true
		}
	}
	return nil
}
