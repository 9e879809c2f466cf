package pinbcast

import (
	"bytes"
	"testing"
	"time"

	"pinbcast/internal/core"
	"pinbcast/internal/ida"
	"pinbcast/internal/rtdb"
)

func TestFacadeBuildAndSimulate(t *testing.T) {
	files := []FileSpec{
		{Name: "traffic", Blocks: 4, Latency: 8, Faults: 1},
		{Name: "map", Blocks: 8, Latency: 40},
	}
	prog, err := Build(BuildConfig{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][]byte{
		"traffic": []byte("northbound congestion at exit 9, use route 128"),
		"map":     bytes.Repeat([]byte("map tile "), 30),
	}
	rep, err := Simulate(SimConfig{
		Program:  prog,
		Contents: data,
		Fault:    BernoulliFaults(0.02, 7),
		Clients: []ClientSpec{
			{Start: 0, Requests: []Request{{File: "traffic"}, {File: "map"}}},
		},
		Horizon: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !r.Completed || !bytes.Equal(r.Data, data[r.File]) {
			t.Fatalf("request %q failed", r.File)
		}
	}
}

func TestFacadeBandwidths(t *testing.T) {
	files := []FileSpec{{Name: "A", Blocks: 7, Latency: 10}}
	if n := NecessaryBandwidth(files); n != 0.7 {
		t.Fatalf("necessary = %v", n)
	}
	if s := SufficientBandwidth(files); s != 1 {
		t.Fatalf("sufficient = %v", s)
	}
	min, err := MinBandwidth(files)
	if err != nil {
		t.Fatal(err)
	}
	if min != 1 {
		t.Fatalf("min = %d", min)
	}
}

func TestFacadeIDA(t *testing.T) {
	data := []byte("facade round trip")
	blocks, err := ida.DisperseFile(3, data, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct([]*Block{blocks[4], blocks[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestFacadePinwheel(t *testing.T) {
	sys := TaskSystem{{A: 1, B: 2}, {A: 1, B: 3}}
	portfolio, _ := LookupScheduler(SchedulerPortfolio)
	sch, err := portfolio.Schedule(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
	if DensityTestCC(sys) {
		t.Fatal("density 5/6 passed the 7/10 test")
	}
}

func TestFacadeAlgebra(t *testing.T) {
	// bc(i, 4, [8, 9]) through the §4 path that runs: the conjunct the
	// generalized construction converts it to has density ≤ 5/9.
	res, err := BuildGeneralizedProgram([]GenFileSpec{{Name: "i", Blocks: 4, Latencies: []int{8, 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Conjunct.Density(); d > 5.0/9.0+1e-9 {
		t.Fatalf("density = %v", d)
	}
}

func TestFacadeGeneralized(t *testing.T) {
	res, err := BuildGeneralizedProgram([]GenFileSpec{
		{Name: "A", Blocks: 2, Latencies: []int{8, 10}},
		{Name: "B", Blocks: 1, Latencies: []int{6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Period < 1 {
		t.Fatal("empty program")
	}
}

func TestFacadeRTDB(t *testing.T) {
	db := &RTDatabase{Unit: 100 * time.Millisecond, Items: []RTItem{{
		Name: "pos", Velocity: 250, Accuracy: 100, Blocks: 2,
		FaultsByMode: map[Mode]int{"combat": 1},
	}}}
	files, err := db.FileSpecs("combat")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildProgram(files, core.SufficientBandwidth(files))
	if err != nil {
		t.Fatal(err)
	}
	if p.Period < 1 {
		t.Fatal("empty program")
	}
	admitted, err := rtdb.Admit(nil, FileSpec{Name: "x", Blocks: 1, Latency: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 1 {
		t.Fatal("admission failed")
	}
}

func TestFacadeFlatBaselines(t *testing.T) {
	files := []FileSpec{
		{Name: "A", Blocks: 5, Latency: 1, DispersalWidth: 10},
		{Name: "B", Blocks: 3, Latency: 1, DispersalWidth: 6},
	}
	spread, err := FlatSpread(files)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.FlatSequential(files)
	if err != nil {
		t.Fatal(err)
	}
	if spread.Period != 8 || seq.Period != 8 {
		t.Fatal("unexpected periods")
	}
	if spread.MaxGap(1) >= seq.MaxGap(1) {
		t.Fatal("spreading should reduce δ_B")
	}
}

// TestFaultModelsReproducibleBySeed: identically seeded models reproduce
// the exact fault sequence, for every randomized model of the public
// fault seam — the seed is the whole of their state.
func TestFaultModelsReproducibleBySeed(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(seed int64) FaultModel
	}{
		{"bernoulli", func(seed int64) FaultModel { return BernoulliFaults(0.3, seed) }},
		{"burst", func(seed int64) FaultModel { return BurstFaults(0.2, 0.3, 0.9, seed) }},
	} {
		a, b, other := tc.make(7), tc.make(7), tc.make(8)
		differs := false
		for slot := 0; slot < 512; slot++ {
			lost := a.Corrupts(slot)
			if lost != b.Corrupts(slot) {
				t.Fatalf("%s: identically seeded models diverged at slot %d", tc.name, slot)
			}
			differs = differs || lost != other.Corrupts(slot)
		}
		if !differs {
			t.Fatalf("%s: seeds 7 and 8 drew the same 512 slots: the seed is not used", tc.name)
		}
	}
}
