package core

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"pinbcast/internal/algebra"
	"pinbcast/internal/pinwheel"
)

// vectorFile is the §4 file bc(name, m, d⃗): at bandwidth 1 its
// latencies count slots.
func vectorFile(name string, m int, d ...int) FileSpec {
	f := FileSpec{Name: name, Blocks: m, Faults: len(d) - 1, Latencies: d}
	if len(d) > 0 {
		f.Latency = d[len(d)-1]
	}
	return f
}

// buildVectors builds §4 files at bandwidth 1 with the portfolio.
func buildVectors(files []FileSpec) (*Program, error) { return BuildProgramWith(files, 1, nil) }

// genCorpus draws n seeded §4 file sets: 1–4 files, m from 1 to 4, one
// to three levels, d⁽⁰⁾ from m to 4m + 5 and each later level 1 to
// m + 3 slots past the one before — the generator of the root package's
// TestWorstLatencyIsTheOracleOnGeneralizedPrograms, with up to four
// files.
func genCorpus(seed uint64, n int) [][]FileSpec {
	rng := rand.New(rand.NewPCG(seed, 41))
	sets := make([][]FileSpec, n)
	for k := range sets {
		files := make([]FileSpec, 1+rng.IntN(4))
		for i := range files {
			m := 1 + rng.IntN(4)
			d := make([]int, 1+rng.IntN(3))
			d[0] = m + rng.IntN(3*m+6)
			for j := 1; j < len(d); j++ {
				d[j] = d[j-1] + 1 + rng.IntN(m+3)
			}
			files[i] = vectorFile(string(rune('a'+i)), m, d...)
		}
		sets[k] = files
	}
	return sets
}

// referenceBuild is the conversion path the one builder replaced: each
// file's condition converted to a nice conjunct (algebra.Convert), the
// conjuncts scheduled together as one-window tasks by the default
// chain, and each member's slots folded onto the file it maps to.
func referenceBuild(files []FileSpec) (*Program, error) {
	var sys pinwheel.System
	var owner []int
	infos := make([]FileInfo, len(files))
	for i, g := range files {
		n, err := algebra.Convert(algebra.BC{Task: g.Name, M: g.Blocks, D: g.Latencies})
		if err != nil {
			return nil, err
		}
		for _, m := range n {
			sys = append(sys, pinwheel.Task{Name: m.Task, A: m.A, B: m.B})
			owner = append(owner, i)
		}
		infos[i] = FileInfo{Name: g.Name, M: g.Blocks, N: g.Width(), Demand: g.Demand()}
	}
	sch, err := pinwheel.Solve(sys, nil)
	if err != nil {
		return nil, err
	}
	for t, v := range sch.Slots {
		if v != Idle {
			sch.Slots[t] = owner[v]
		}
	}
	return NewProgram(infos, sch.Slots, 0, "reference/"+sch.Origin)
}

// meetsLevels holds a program to every file's latency vector through
// WorstLatency, independently of the schedule's own certificate.
func meetsLevels(t *testing.T, name string, p *Program, files []FileSpec) {
	t.Helper()
	for i, g := range files {
		for j, d := range g.Latencies {
			if worst, err := p.WorstLatency(i, j); err != nil || worst > d {
				t.Fatalf("%s (%s): file %s with %d faults waits %d (%v), past d_%d = %d", name, p.Origin, g.Name, j, worst, err, j, d)
			}
		}
	}
}

// TestGeneralizedCorpus runs a seeded slice of the §4 corpus through
// the one builder and through the conversion path it replaced. Every
// set the reference builds must build, and every build meets its
// vectors. The counts are pinned: the walk (EDF or Exact, not
// convert/…) builds most sets, and a walk that schedules a task's first
// window only would lose them even though Solve's certificate turns its
// schedules away.
func TestGeneralizedCorpus(t *testing.T) {
	const wantBuilt, wantWalked = 225, 200
	built, walked, reference := 0, 0, 0
	for k, files := range genCorpus(16, 400) {
		name := fmt.Sprintf("set %d %v", k, files)
		_, refErr := referenceBuild(files)
		if refErr == nil {
			reference++
		}
		p, err := buildVectors(files)
		if err != nil {
			if refErr == nil {
				t.Fatalf("%s: the conversion path builds it, the one builder returns %v", name, err)
			}
			continue
		}
		built++
		if !strings.HasPrefix(p.Origin, "pinwheel/convert/") {
			walked++
		}
		meetsLevels(t, name, p, files)
	}
	t.Logf("%d of 400 sets built (%d by the walk), the conversion path %d", built, walked, reference)
	if built != wantBuilt || walked != wantWalked {
		t.Fatalf("built %d (%d by the walk), want %d (%d)", built, walked, wantBuilt, wantWalked)
	}
}
