package core

import (
	"math/rand"
	"testing"
)

func TestFlatDelayLemma1(t *testing.T) {
	// Figure 5 / Lemma 1: a flat program of period τ=8 suffers r·8.
	p, err := FlatSpread(fig5Files())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= 5; r++ {
		for i := range p.Files {
			d, err := FlatDelay(p, i, r)
			if err != nil {
				t.Fatal(err)
			}
			if d != Lemma1Bound(r, 8) {
				t.Fatalf("file %d r=%d: delay %d, want %d", i, r, d, r*8)
			}
		}
	}
}

func TestAIDADelayFigure6(t *testing.T) {
	// Figure 6's program: A spread with gaps (2,1,2,2,1), B with gaps
	// (3,2,3). The worst-case r-error delay for a file is the maximum
	// sum of r consecutive gaps (documented definition in delay.go).
	p, err := FlatSpread(fig6Files())
	if err != nil {
		t.Fatal(err)
	}
	if g := p.MaxGap(0); g != 2 {
		t.Fatalf("δ_A = %d, want 2", g)
	}
	if g := p.MaxGap(1); g != 3 {
		t.Fatalf("δ_B = %d, want 3", g)
	}
	// File A tolerates up to N−M = 5 errors, file B up to 3.
	wantA := map[int]int{0: 0, 1: 2, 2: 4, 3: 5, 4: 7, 5: 8}
	for r, want := range wantA {
		d, err := AIDADelay(p, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		if d != want {
			t.Fatalf("A r=%d: delay %d, want %d", r, d, want)
		}
		if d > Lemma2Bound(r, p.MaxGap(0)) {
			t.Fatalf("A r=%d: delay %d exceeds Lemma 2 bound", r, d)
		}
	}
	wantB := map[int]int{0: 0, 1: 3, 2: 6, 3: 8}
	for r, want := range wantB {
		d, err := AIDADelay(p, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		if d != want {
			t.Fatalf("B r=%d: delay %d, want %d", r, d, want)
		}
		if d > Lemma2Bound(r, p.MaxGap(1)) {
			t.Fatalf("B r=%d: delay %d exceeds Lemma 2 bound", r, d)
		}
	}
}

func TestAIDADelayRejectsExcessErrors(t *testing.T) {
	p, err := FlatSpread(fig6Files())
	if err != nil {
		t.Fatal(err)
	}
	// File B: N=6, M=3 → at most 3 errors.
	if _, err := AIDADelay(p, 1, 4); err == nil {
		t.Fatal("r beyond N−M accepted")
	}
	if _, err := AIDADelay(p, 0, -1); err == nil {
		t.Fatal("negative r accepted")
	}
}

func TestBuildDelayTableFigure7(t *testing.T) {
	// Figure 7's comparison: the flat program loses r·8; the AIDA
	// program loses at most r·δ with δ = max(δ_A, δ_B) = 3. The paper's
	// exact table entries come from a coarser estimate (see the notes
	// exp.Figure7 prints); the reproduction targets are (a) the without-IDA
	// column exactly, (b) the with-IDA column bounded by Lemma 2, and
	// (c) the speedup factor τ/δ ≈ 2.7.
	aida, err := FlatSpread(fig6Files())
	if err != nil {
		t.Fatal(err)
	}
	flat, err := FlatSpread(fig5Files())
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildDelayTable(aida, flat, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantWithout := []int{0, 8, 16, 24}
	for i, w := range wantWithout {
		if table.Without[i] != w {
			t.Fatalf("without IDA r=%d: %d, want %d", i, table.Without[i], w)
		}
	}
	wantWith := []int{0, 3, 6, 8}
	for i, w := range wantWith {
		if table.WithIDA[i] != w {
			t.Fatalf("with IDA r=%d: %d, want %d", i, table.WithIDA[i], w)
		}
		if table.WithIDA[i] > Lemma2Bound(i, 3) {
			t.Fatalf("with IDA r=%d exceeds Lemma 2 bound", i)
		}
	}
}

func TestDelayBoundsPropertyRandomPrograms(t *testing.T) {
	// Lemmas 1 and 2 must hold on arbitrary spread programs.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		files := make([]FileSpec, n)
		for i := range files {
			m := 1 + rng.Intn(6)
			r := rng.Intn(3)
			files[i] = FileSpec{
				Name:           string(rune('A' + i)),
				Blocks:         m,
				Latency:        1,
				Faults:         r,
				DispersalWidth: m + r + rng.Intn(4),
			}
		}
		p, err := FlatSpread(files)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range files {
			delta := p.MaxGap(i)
			maxR := p.Files[i].N - p.Files[i].M
			for r := 0; r <= maxR; r++ {
				d, err := AIDADelay(p, i, r)
				if err != nil {
					t.Fatal(err)
				}
				if d > Lemma2Bound(r, delta) {
					t.Fatalf("trial %d file %d r=%d: AIDA delay %d > r·δ = %d",
						trial, i, r, d, r*delta)
				}
				// D_r by its definition, max over s of C_r(s) − C_0(s),
				// walked slot by slot.
				want, m := 0, p.Files[i].M
				for start := range p.Period {
					want = max(want, scanLatency(p.Slots, i, m+r, start)-scanLatency(p.Slots, i, m, start))
				}
				if d != want {
					t.Fatalf("trial %d file %d r=%d: AIDA delay %d, slot walk gives %d", trial, i, r, d, want)
				}
			}
			for r := 0; r <= 3; r++ {
				d, err := FlatDelay(p, i, r)
				if err != nil {
					t.Fatal(err)
				}
				// For spread flat programs each block recurs once per
				// data cycle; Lemma 1 with τ = data cycle.
				if d > Lemma1Bound(r, p.DataCycle()) {
					t.Fatalf("trial %d file %d r=%d: flat delay %d > r·τ = %d",
						trial, i, r, d, r*p.DataCycle())
				}
			}
			_ = f
		}
	}
}

// flatDelayScan is FlatDelay by its definition, the reference it is
// held to: r times the longest cyclic spacing between transmissions of
// one specific block of the file, over every slot of a data cycle.
func flatDelayScan(p *Program, file, r int) int {
	cycle := p.DataCycle()
	occ := make(map[int][]int) // block seq -> slots
	for t := 0; t < cycle; t++ {
		if f, seq := p.BlockAt(t); f == file {
			occ[seq] = append(occ[seq], t)
		}
	}
	worst := 0
	for _, slots := range occ {
		for k := range slots {
			gap := slots[0] + cycle - slots[k]
			if k+1 < len(slots) {
				gap = slots[k+1] - slots[k]
			}
			worst = max(worst, gap)
		}
	}
	return r * worst
}

func TestFlatDelayMatchesDataCycleScan(t *testing.T) {
	builders := []struct {
		name  string
		build func([]FileSpec) (*Program, error)
	}{
		{"flat-spread", FlatSpread},
		{"flat-sequential", FlatSequential},
		{"pinwheel", func(files []FileSpec) (*Program, error) {
			return BuildProgramWith(files, SufficientBandwidth(files), nil)
		}},
	}
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 100; trial++ {
		files := make([]FileSpec, 1+rng.Intn(4))
		for i := range files {
			m, r := 1+rng.Intn(5), rng.Intn(3)
			files[i] = FileSpec{
				Name:           string(rune('A' + i)),
				Blocks:         m,
				Latency:        1 + rng.Intn(4),
				Faults:         r,
				DispersalWidth: m + r + rng.Intn(3),
			}
		}
		for _, b := range builders {
			p, err := b.build(files)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, b.name, err)
			}
			for i := range files {
				for r := 0; r <= 3; r++ {
					d, err := FlatDelay(p, i, r)
					if want := flatDelayScan(p, i, r); err != nil || d != want {
						t.Fatalf("trial %d %s file %d r=%d: FlatDelay %d (%v), the data-cycle scan %d on %v",
							trial, b.name, i, r, d, err, want, p.Slots)
					}
					checked++
				}
			}
		}
	}
	t.Logf("FlatDelay equals the data-cycle scan on %d (program, file, r) cases", checked)
}

func TestAIDADelayManyErrorsWrapsPeriods(t *testing.T) {
	// With dispersal width much larger than demand, r can exceed the
	// occurrences per period; each full wrap adds one period.
	files := []FileSpec{{Name: "A", Blocks: 2, Latency: 1, DispersalWidth: 12}}
	p, err := FlatSpread(files)
	if err != nil {
		t.Fatal(err)
	}
	// 2 occurrences per period of 2 slots: gaps (1,1).
	d, err := AIDADelay(p, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Fatalf("delay = %d, want 5", d)
	}
}

func BenchmarkBuildDelayTable(b *testing.B) {
	aida, _ := FlatSpread(fig6Files())
	flat, _ := FlatSpread(fig5Files())
	for i := 0; i < b.N; i++ {
		if _, err := BuildDelayTable(aida, flat, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildProgram(b *testing.B) {
	files := []FileSpec{
		{Name: "A", Blocks: 5, Latency: 10, Faults: 2},
		{Name: "B", Blocks: 3, Latency: 6, Faults: 1},
		{Name: "C", Blocks: 8, Latency: 20},
	}
	bw := SufficientBandwidth(files)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildProgramWith(files, bw, nil); err != nil {
			b.Fatal(err)
		}
	}
}
