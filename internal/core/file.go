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
// Chan & Chin's 7/10 density bound (Equations 1 and 2); and generalized
// files with per-fault-level latency vectors go through the pinwheel
// algebra (§4, package algebra).
package core

import (
	"fmt"

	"pinbcast/internal/bcerr"
)

// FileSpec describes a regular fault-tolerant real-time broadcast file
// (§3.2): a size in blocks, a latency constraint, and a uniform
// fault-tolerance requirement.
type FileSpec struct {
	Name    string
	Blocks  int // mᵢ: blocks sufficient to reconstruct the file (dispersal threshold)
	Latency int // Tᵢ: retrieval deadline in time units
	Faults  int // rᵢ: block transmission errors tolerated per retrieval
	// DispersalWidth is the number of distinct dispersed blocks the
	// server rotates through (the AIDA N). Zero means Blocks+Faults,
	// the minimum that preserves per-retrieval distinctness.
	DispersalWidth int
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
	}
	return nil
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

// GenFileSpec describes a generalized fault-tolerant real-time broadcast
// file (§4.1): a size and a latency vector d⃗ = [d⁽⁰⁾, …, d⁽ʳ⁾], where
// d⁽ʲ⁾ is the worst-case latency tolerable in the presence of j faults,
// measured in slots (block-transmission times; §4.1 assumes bandwidth is
// known, so latencies are already in slot units).
type GenFileSpec struct {
	Name      string
	Blocks    int   // mᵢ
	Latencies []int // d⁽ʲ⁾ for j = 0..rᵢ, in slots
}

// Validate checks the specification.
func (g GenFileSpec) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("core: generalized file needs a name: %w", bcerr.ErrBadSpec)
	}
	if g.Blocks < 1 {
		return fmt.Errorf("core: file %q has %d blocks: %w", g.Name, g.Blocks, bcerr.ErrBadSpec)
	}
	if len(g.Latencies) == 0 {
		return fmt.Errorf("core: file %q has no latency vector: %w", g.Name, bcerr.ErrBadSpec)
	}
	for j, d := range g.Latencies {
		if d < g.Blocks+j {
			return fmt.Errorf("core: file %q level %d latency %d below %d blocks: %w",
				g.Name, j, d, g.Blocks+j, bcerr.ErrBadSpec)
		}
	}
	return nil
}

// Faults returns the number of tolerated faults rᵢ.
func (g GenFileSpec) Faults() int { return len(g.Latencies) - 1 }
