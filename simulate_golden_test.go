package pinbcast

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// testdata/simulate_golden.json was written by the seed-era simulator,
// internal/sim.Run, at the last commit that had it (2fefed9): this file
// was compiled into that tree — where Simulate was sim.Run — and each
// goldenOf(Simulate(cfg)) marshalled under its configuration's name.
// The simulator it came from is deleted, so the file is evidence, not
// something to regenerate: a mismatch means Simulate's behaviour moved.

type goldenResult struct {
	File        string
	Completed   bool
	Latency     int
	Deadline    int
	DeadlineMet bool
	BlocksUsed  int
	Corrupted   int
	DataSHA256  string
}

type goldenReport struct {
	Slots           int
	BlocksSent      int
	BlocksCorrupted int
	FaultModel      string
	PerFile         map[string]FileStats
	Results         []goldenResult
}

// goldenOf projects a report onto the compared fields. Results arrive
// client by client — completions in completion order, then the flushed
// failures in map order — so each client's failures are sorted by file.
func goldenOf(cfg SimConfig, rep *SimReport) goldenReport {
	g := goldenReport{
		Slots:           rep.Slots,
		BlocksSent:      rep.BlocksSent,
		BlocksCorrupted: rep.BlocksCorrupted,
		FaultModel:      rep.FaultModel,
		PerFile:         map[string]FileStats{},
	}
	for name, st := range rep.PerFile {
		g.PerFile[name] = *st
	}
	for _, r := range rep.Results {
		gr := goldenResult{
			File: r.File, Completed: r.Completed, Latency: r.Latency,
			Deadline: r.Deadline, DeadlineMet: r.DeadlineMet,
			BlocksUsed: r.BlocksUsed, Corrupted: r.Corrupted,
		}
		if r.Data != nil {
			sum := sha256.Sum256(r.Data)
			gr.DataSHA256 = hex.EncodeToString(sum[:])
		}
		g.Results = append(g.Results, gr)
	}
	lo := 0
	for _, cs := range cfg.Clients {
		hi := lo + len(cs.Requests)
		own := g.Results[lo:hi]
		sort.SliceStable(own, func(i, j int) bool {
			if own[i].Completed != own[j].Completed {
				return own[i].Completed
			}
			return !own[i].Completed && own[i].File < own[j].File
		})
		lo = hi
	}
	return g
}

// staggered places n clients start slots apart, each wanting every
// named file by the given deadline.
func staggered(n, stride, deadline int, files ...string) []ClientSpec {
	out := make([]ClientSpec, n)
	for i := range out {
		out[i].Start = i * stride
		for _, f := range files {
			out[i].Requests = append(out[i].Requests, Request{File: f, Deadline: deadline})
		}
	}
	return out
}

// simGoldenConfigs builds the fixed configurations of the golden file.
// Fault models are stateful, so every call builds fresh ones.
func simGoldenConfigs(t testing.TB) map[string]SimConfig {
	fig6 := simFig6Program(t)
	fig6Data := simFig6Contents()

	pinFiles := []FileSpec{
		{Name: "A", Blocks: 5, Latency: 10, Faults: 2},
		{Name: "B", Blocks: 3, Latency: 6, Faults: 1},
	}
	pin, err := Build(BuildConfig{Files: pinFiles})
	if err != nil {
		t.Fatal(err)
	}

	ivhs := IVHSCatalog(6, 11)
	ivhsProg, err := Build(BuildConfig{Files: ivhs})
	if err != nil {
		t.Fatal(err)
	}
	var ivhsClients []ClientSpec
	for i := 0; i < 32; i++ {
		f, g := ivhs[i%len(ivhs)], ivhs[(i*5+2)%len(ivhs)]
		cs := ClientSpec{Start: i * 7, Requests: []Request{
			{File: f.Name, Deadline: ivhsProg.Bandwidth * f.Latency},
		}}
		if g.Name != f.Name {
			cs.Requests = append(cs.Requests, Request{File: g.Name})
		}
		ivhsClients = append(ivhsClients, cs)
	}

	occA, occB := fig6.Occurrences(0), fig6.Occurrences(1)
	return map[string]SimConfig{
		"fig6-fault-free": {
			Program: fig6, Contents: fig6Data,
			Clients: []ClientSpec{
				{Start: 0, Requests: []Request{{File: "A"}, {File: "B", Deadline: 8}}},
				{Start: 5, Requests: []Request{{File: "B"}}},
				{Start: 11, Requests: []Request{{File: "A", Deadline: 8}}},
			},
		},
		"fig6-slotfaults-within-tolerance": {
			Program: fig6, Contents: fig6Data,
			Fault: SlotFaults(occA[1], occA[4], occB[0], occB[0]+fig6.Period),
			Clients: []ClientSpec{
				{Start: 0, Requests: []Request{{File: "A", Deadline: 12}, {File: "B", Deadline: 7}}},
				{Start: 3, Requests: []Request{{File: "A", Deadline: 9}}},
				{Start: 9, Requests: []Request{{File: "B", Deadline: 3}}},
			},
		},
		"fig6-bernoulli-5pct-32-clients": {
			Program: fig6, Contents: fig6Data,
			Fault:   BernoulliFaults(0.05, 13),
			Clients: staggered(32, 3, 16, "A", "B"),
			Horizon: 4096,
		},
		"fig6-burst-32-clients": {
			Program: fig6, Contents: fig6Data,
			Fault:   BurstFaults(0.05, 0.3, 0.9, 7),
			Clients: staggered(32, 5, 12, "B", "A"),
		},
		"pinwheel-faults-bernoulli": {
			Program: pin,
			Contents: map[string][]byte{
				"A": []byte("IVHS segment data IVHS segment data IVHS segment data IVHS segment data"),
				"B": []byte("alert: accident at exit 14"),
			},
			Fault: BernoulliFaults(0.08, 99),
			Clients: []ClientSpec{
				{Start: 0, Requests: []Request{
					{File: "A", Deadline: pin.Bandwidth * 10}, {File: "B", Deadline: pin.Bandwidth * 6}}},
				{Start: 17, Requests: []Request{{File: "B", Deadline: pin.Bandwidth * 6}}},
				{Start: 40, Requests: []Request{{File: "A", Deadline: pin.Bandwidth * 10}}},
			},
			Horizon: 8192,
		},
		"fig6-short-horizon-unfinished": {
			Program: fig6, Contents: fig6Data,
			Fault: SlotFaults(occA[0]),
			Clients: []ClientSpec{
				{Start: 0, Requests: []Request{{File: "B", Deadline: 4}, {File: "A", Deadline: 5}}},
				{Start: 3, Requests: []Request{{File: "B"}, {File: "A", Deadline: 2}}},
			},
			Horizon: 9,
		},
		"ivhs-pinwheel-burst-32-clients": {
			Program:  ivhsProg,
			Contents: CatalogContents(ivhs, 48, 5),
			Fault:    BurstFaults(0.03, 0.4, 0.8, 21),
			Clients:  ivhsClients,
		},
	}
}

func TestSimulateGoldenParity(t *testing.T) {
	raw, err := os.ReadFile("testdata/simulate_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenReport
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	cfgs := simGoldenConfigs(t)
	if len(golden) != len(cfgs) {
		t.Fatalf("golden holds %d configurations, test builds %d", len(golden), len(cfgs))
	}
	for name, cfg := range cfgs {
		want, ok := golden[name]
		if !ok {
			t.Fatalf("configuration %q missing from the golden file", name)
		}
		rep, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := goldenOf(cfg, rep)
		if reflect.DeepEqual(got, want) {
			continue
		}
		// Narrow the report before printing: whole reports run to
		// hundreds of lines.
		gotHead, wantHead := got, want
		gotHead.Results, wantHead.Results = nil, nil
		if !reflect.DeepEqual(gotHead, wantHead) {
			t.Errorf("%s: report\n got  %+v\n want %+v", name, gotHead, wantHead)
		}
		if len(got.Results) != len(want.Results) {
			t.Errorf("%s: %d results, want %d", name, len(got.Results), len(want.Results))
			continue
		}
		for i := range got.Results {
			if got.Results[i] != want.Results[i] {
				t.Errorf("%s: result %d\n got  %+v\n want %+v", name, i, got.Results[i], want.Results[i])
			}
		}
	}
}
