package core

import (
	"fmt"

	"pinbcast/internal/algebra"
	"pinbcast/internal/bcerr"
	"pinbcast/internal/pinwheel"
)

// BuildProgramWith constructs a fault-tolerant real-time broadcast
// program for the files at bandwidth B blocks per time unit: it
// schedules the pinwheel system {(mᵢ+rᵢ, B·Tᵢ)} with the scheduler chain
// (pinwheel.Solve; nil runs the paper's portfolio) and wraps the
// schedule in a Program with AIDA block rotation. The resulting program
// guarantees that every window of B·Tᵢ slots carries at least mᵢ+rᵢ
// distinct blocks of file i, so a client meets latency Tᵢ despite up to
// rᵢ block errors. A file with a latency vector d⃗ (§4) is the task
// with fault levels bc(i, mᵢ, B·d⃗ᵢ) is on its own stream: with j block
// errors a client meets latency d⁽ʲ⁾. At bandwidth 1 its latencies
// count slots, as §4.1's do.
func BuildProgramWith(files []FileSpec, bandwidth int, chain []pinwheel.Scheduler) (*Program, error) {
	if err := ValidateAll(files); err != nil {
		return nil, err
	}
	if bandwidth < 1 {
		return nil, fmt.Errorf("core: bandwidth %d < 1: %w", bandwidth, bcerr.ErrBandwidth)
	}
	infos := make([]FileInfo, len(files))
	for i, f := range files {
		infos[i] = FileInfo{Name: f.Name, M: f.Blocks, N: f.Width(), Demand: f.Demand()}
		// A vector's levels in slots pass the broadcast condition's checks:
		// each fits its mᵢ + j blocks, within the schedulers' 2²² slots.
		if f.Latencies != nil {
			if err := (algebra.BC{Task: f.Name, M: f.Blocks, D: f.levels(bandwidth)}).Validate(); err != nil {
				return nil, err
			}
		}
	}
	sys := TaskSystem(files, bandwidth)
	if err := sys.Validate(); err != nil {
		// ValidateAll passed, so the only way the task system is invalid
		// is a window B·Tᵢ smaller than the demand mᵢ+rᵢ.
		return nil, fmt.Errorf("core: bandwidth %d too low (%w): %w", bandwidth, err, bcerr.ErrBandwidth)
	}
	sch, err := pinwheel.Solve(sys, chain)
	if err != nil {
		return nil, fmt.Errorf("core: scheduling %d files (density %.4f): %w", len(infos), sys.Density(), err)
	}
	// Solve verified every window of every task, the program's own
	// specification, so the program adopts the index Verify built.
	return indexedProgram(infos, sch.Slots, sch.Occ, sch.Rank, bandwidth, "pinwheel/"+sch.Origin)
}
