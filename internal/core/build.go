package core

import (
	"fmt"

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
// rᵢ block errors.
func BuildProgramWith(files []FileSpec, bandwidth int, chain []pinwheel.Scheduler) (*Program, error) {
	if err := ValidateAll(files); err != nil {
		return nil, err
	}
	if bandwidth < 1 {
		return nil, fmt.Errorf("core: bandwidth %d < 1: %w", bandwidth, bcerr.ErrBandwidth)
	}
	sys := TaskSystem(files, bandwidth)
	if err := sys.Validate(); err != nil {
		// ValidateAll passed, so the only way the task system is invalid
		// is a window B·Tᵢ smaller than the demand mᵢ+rᵢ.
		return nil, fmt.Errorf("core: bandwidth %d too low (%w): %w", bandwidth, err, bcerr.ErrBandwidth)
	}
	infos := make([]FileInfo, len(files))
	for i, f := range files {
		infos[i] = FileInfo{Name: f.Name, M: f.Blocks, N: f.Width(), Demand: f.Demand()}
	}
	return build(infos, sys, bandwidth, chain, "pinwheel/")
}

// BuildGeneralizedProgram constructs a broadcast program for
// generalized fault-tolerant real-time files (§4): file i is the task
// with fault levels that bc(i, mᵢ, d⃗ᵢ) is on its own stream, scheduled
// by the portfolio. Latencies are in slots (§4.1's known bandwidth).
func BuildGeneralizedProgram(files []GenFileSpec) (*Program, error) {
	infos := make([]FileInfo, len(files))
	sys := make(pinwheel.System, len(files)) // Solve refuses an empty one
	seen := make(map[string]bool, len(files))
	for i, g := range files {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("core: duplicate file name %q: %w", g.Name, bcerr.ErrBadSpec)
		}
		seen[g.Name] = true
		n := g.Blocks + g.Faults()
		infos[i] = FileInfo{Name: g.Name, M: g.Blocks, N: n, Demand: n}
		sys[i] = g.task()
	}
	return build(infos, sys, 0, nil, "generalized/")
}

// build is the one program builder: files' tasks → Solve → Program.
// Solve verified every window of every task, the program's own
// specification, so the program adopts the index Verify built.
func build(infos []FileInfo, sys pinwheel.System, bandwidth int, chain []pinwheel.Scheduler, origin string) (*Program, error) {
	sch, err := pinwheel.Solve(sys, chain)
	if err != nil {
		return nil, fmt.Errorf("core: scheduling %d files (density %.4f): %w", len(infos), sys.Density(), err)
	}
	return indexedProgram(infos, sch.Slots, sch.Occ, sch.Rank, bandwidth, origin+sch.Origin)
}
