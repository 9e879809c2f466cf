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
	sch, err := pinwheel.Solve(sys, chain)
	if err != nil {
		return nil, fmt.Errorf("core: scheduling at bandwidth %d: %w", bandwidth, err)
	}
	infos := make([]FileInfo, len(files))
	for i, f := range files {
		infos[i] = FileInfo{Name: f.Name, M: f.Blocks, N: f.Width(), Demand: f.Demand()}
	}
	// Solve verified every window of sys, one task (mᵢ+rᵢ, B·Tᵢ) per
	// file: the program's own specification. It adopts the index Verify
	// built, and a second certificate would check the same windows.
	return indexedProgram(infos, sch.Slots, sch.Occ, sch.Rank, bandwidth, "pinwheel/"+sch.Origin)
}

// GeneralizedResult carries the artifacts of a generalized-Bdisk
// construction: the converted nice conjunct, its scheduler system, and
// the resulting program.
type GeneralizedResult struct {
	Program  *Program
	Conjunct algebra.NiceConjunct
	System   pinwheel.System
	// TaskFile[k] is the file index served by scheduler task k.
	TaskFile []int
}

// BuildGeneralizedProgram constructs a broadcast program for
// generalized fault-tolerant real-time files (§4): each file's
// broadcast condition bc(i, mᵢ, d⃗ᵢ) is converted to a low-density
// nice conjunct with the pinwheel algebra, the conjunct is scheduled as
// a pinwheel system, and scheduler tasks are folded back onto their
// files (the paper's map(i′, i) semantics: a helper task's slots carry
// blocks of the mapped file). Latencies are given in slots, matching
// §4.1's known-bandwidth model.
func BuildGeneralizedProgram(files []GenFileSpec) (*GeneralizedResult, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("core: no files")
	}
	bcs := make([]algebra.BC, len(files))
	fileIdx := map[string]int{}
	for i, g := range files {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		if _, dup := fileIdx[g.Name]; dup {
			return nil, fmt.Errorf("core: duplicate file name %q", g.Name)
		}
		fileIdx[g.Name] = i
		bcs[i] = algebra.BC{Task: g.Name, M: g.Blocks, D: g.Latencies}
	}
	conj, err := algebra.ConvertSystem(bcs)
	if err != nil {
		return nil, err
	}
	sys := make(pinwheel.System, len(conj))
	taskFile := make([]int, len(conj))
	for k, m := range conj {
		sys[k] = pinwheel.Task{Name: m.Task, A: m.A, B: m.B}
		fi, ok := fileIdx[m.MapsTo]
		if !ok {
			return nil, fmt.Errorf("core: conjunct member %v maps to unknown file", m)
		}
		taskFile[k] = fi
	}
	sch, err := pinwheel.Solve(sys, nil)
	if err != nil {
		return nil, fmt.Errorf("core: scheduling generalized system (density %.4f): %w",
			sys.Density(), err)
	}
	// Fold scheduler tasks onto files.
	slots := make([]int, sch.Period)
	for t, v := range sch.Slots {
		if v == Idle {
			slots[t] = Idle
		} else {
			slots[t] = taskFile[v]
		}
	}
	infos := make([]FileInfo, len(files))
	for i, g := range files {
		infos[i] = FileInfo{
			Name:   g.Name,
			M:      g.Blocks,
			N:      g.Blocks + g.Faults(),
			Demand: g.Blocks + g.Faults(),
		}
	}
	p, err := NewProgram(infos, slots, 0, "generalized/"+sch.Origin)
	if err != nil {
		return nil, err
	}
	// Certify the full chain — conversion plus scheduling — directly
	// against the broadcast conditions.
	for i, g := range files {
		for j, d := range g.Latencies {
			worst, err := p.WorstLatency(i, j)
			if err != nil {
				return nil, fmt.Errorf("core: internal error: %w", err)
			}
			if worst > d {
				return nil, fmt.Errorf("core: internal error: generalized program violates level %d: file %q waits up to %d slots for %d blocks, past %d",
					j, g.Name, worst, g.Blocks+j, d)
			}
		}
	}
	return &GeneralizedResult{Program: p, Conjunct: conj, System: sys, TaskFile: taskFile}, nil
}
