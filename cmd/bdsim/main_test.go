package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pinbcast"
)

func TestRunSmoke(t *testing.T) {
	if err := run(4, 6, 0.05, false, 1, 3, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunBurstModel(t *testing.T) {
	if err := run(3, 4, 0.04, true, 1, 5, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunTieredLayout(t *testing.T) {
	l, ok := pinbcast.LookupLayout(pinbcast.LayoutTiered)
	if !ok {
		t.Fatal("tiered layout not registered")
	}
	if err := run(4, 6, 0.05, false, 1, 3, l); err != nil {
		t.Fatal(err)
	}
}

func TestRunFanout(t *testing.T) {
	if err := runFanout(3, 4, 0.02, 1, 7); err != nil {
		t.Fatal(err)
	}
}

func TestRunCluster(t *testing.T) {
	if err := runCluster(clusterParams{
		files: 6, clients: 3, loss: 0.02, faults: 1, seed: 3,
		channels: 3, replicas: 2, shard: pinbcast.ShardBalanced, kill: -1,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunClusterKill(t *testing.T) {
	if err := runCluster(clusterParams{
		files: 6, clients: 3, loss: 0.02, burst: true, faults: 1, seed: 3,
		channels: 3, replicas: 2, shard: pinbcast.ShardBalanced, kill: 1,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFlags(t *testing.T) {
	// validateFlags consults flag.Visit for explicitly-set flags; none
	// are set under `go test`, so only the value-derived rules fire.
	cases := []struct {
		name                                       string
		stream                                     int
		fanout                                     bool
		clusterK, replicas, kill, nFiles, nClients int
		shard                                      string
		wantOK                                     bool
	}{
		{"default sim", 0, false, 0, 2, -1, 8, 25, "balanced", true},
		{"stream", 64, false, 0, 2, -1, 8, 25, "balanced", true},
		{"cluster", 0, false, 3, 2, -1, 8, 25, "balanced", true},
		{"cluster K=1 with unset replicas default", 0, false, 1, 2, -1, 8, 25, "balanced", true},
		{"stream+fanout", 64, true, 0, 2, -1, 8, 25, "balanced", false},
		{"stream+cluster", 64, false, 3, 2, -1, 8, 25, "balanced", false},
		{"fanout+cluster", 0, true, 3, 2, -1, 8, 25, "balanced", false},
		{"more channels than files", 0, false, 9, 2, -1, 8, 25, "balanced", false},
		{"bad shard", 0, false, 2, 2, -1, 8, 25, "mystery", false},
		{"no clients", 0, false, 0, 2, -1, 8, 0, "balanced", false},
	}
	for _, tc := range cases {
		msg := validateFlags(nil, tc.stream, tc.fanout, tc.clusterK, tc.replicas, tc.kill, tc.nFiles, tc.nClients, tc.shard)
		if (msg == "") != tc.wantOK {
			t.Errorf("%s: validateFlags = %q, want ok=%v", tc.name, msg, tc.wantOK)
		}
	}

	// The -replicas range check fires only for an explicitly-set flag;
	// the unset default is clamped by runCluster instead.
	explicit := map[string]bool{"replicas": true}
	if msg := validateFlags(explicit, 0, false, 2, 0, -1, 8, 25, "balanced"); msg == "" {
		t.Error("explicit -replicas 0 accepted")
	}
	if msg := validateFlags(explicit, 0, false, 2, 3, -1, 8, 25, "balanced"); msg == "" {
		t.Error("explicit -replicas 3 with -cluster 2 accepted")
	}
	// Flags that only another mode consumes are rejected when set.
	if msg := validateFlags(map[string]bool{"clients": true}, 64, false, 0, 2, -1, 8, 25, "balanced"); msg == "" {
		t.Error("-clients with -stream accepted")
	}
	if msg := validateFlags(map[string]bool{"kill": true}, 0, false, 0, 2, 1, 8, 25, "balanced"); msg == "" {
		t.Error("-kill without -cluster accepted")
	}
	// The observability outputs only make sense where an instrumented
	// plane runs: receivers in the simulation, everything in the live
	// modes, nothing in -stream.
	if msg := validateFlags(map[string]bool{"metrics-out": true}, 0, false, 0, 2, -1, 8, 25, "balanced"); msg != "" {
		t.Errorf("-metrics-out in sim mode rejected: %s", msg)
	}
	if msg := validateFlags(map[string]bool{"trace-out": true}, 0, false, 0, 2, -1, 8, 25, "balanced"); msg == "" {
		t.Error("-trace-out in sim mode accepted")
	}
	if msg := validateFlags(map[string]bool{"trace-out": true}, 64, false, 0, 2, -1, 8, 25, "balanced"); msg == "" {
		t.Error("-trace-out with -stream accepted")
	}
	if msg := validateFlags(map[string]bool{"trace-out": true, "metrics-out": true}, 0, true, 0, 2, -1, 8, 25, "balanced"); msg != "" {
		t.Errorf("-trace-out/-metrics-out with -fanout rejected: %s", msg)
	}
}

// TestObservabilityOutputs runs the live fan-out pipeline and checks
// that the post-run dumps land on disk well-formed: the metrics file
// as a JSON registry snapshot carrying the station family, the trace
// file as one JSON object per line with wire-named kinds.
func TestObservabilityOutputs(t *testing.T) {
	if err := runFanout(3, 2, 0, 1, 11); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.jsonl")
	if err := writeMetricsOut(metricsPath); err != nil {
		t.Fatal(err)
	}
	if err := writeTraceOut(tracePath); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var fams []struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &fams); err != nil {
		t.Fatalf("metrics-out is not a JSON family list: %v", err)
	}
	found := false
	for _, f := range fams {
		if f.Name == "pin_station_slots_total" && f.Type == "counter" {
			found = true
		}
	}
	if !found {
		t.Error("metrics-out missing pin_station_slots_total")
	}

	raw, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("trace-out is empty after a live fan-out run")
	}
	kinds := map[string]int{}
	var prevSeq uint64
	for i, line := range lines {
		var ev traceLine
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace-out line %d: %v", i+1, err)
		}
		if i > 0 && ev.Seq <= prevSeq {
			t.Fatalf("trace-out seq not increasing at line %d: %d after %d", i+1, ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		kinds[ev.Kind]++
	}
	for _, want := range []string{"slot_served", "frame_flushed"} {
		if kinds[want] == 0 {
			t.Errorf("trace-out has no %q events (kinds: %v)", want, kinds)
		}
	}
}

// counterSnapshot writes a -metrics-out snapshot and returns the summed
// value of each counter family in it.
func counterSnapshot(t *testing.T) map[string]int64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := writeMetricsOut(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fams []struct {
		Name   string `json:"name"`
		Series []struct {
			Value *int64 `json:"value"`
		} `json:"series"`
	}
	if err := json.Unmarshal(raw, &fams); err != nil {
		t.Fatalf("metrics-out is not a JSON family list: %v", err)
	}
	out := map[string]int64{}
	for _, f := range fams {
		for _, s := range f.Series {
			if s.Value != nil {
				out[f.Name] += *s.Value
			}
		}
	}
	return out
}

// TestSimModeMetricsOut: the default (simulation) mode runs Receivers,
// so its -metrics-out snapshot carries what they consumed. The registry
// is process-wide and other tests feed it, so the run's own
// contribution is read as a difference.
func TestSimModeMetricsOut(t *testing.T) {
	before := counterSnapshot(t)
	if err := run(4, 6, 0.05, false, 1, 3, nil); err != nil {
		t.Fatal(err)
	}
	after := counterSnapshot(t)
	for _, name := range []string{"pin_receiver_slots_total", "pin_receiver_blocks_total"} {
		if after[name] <= before[name] {
			t.Errorf("%s did not advance over a sim-mode run: %d → %d", name, before[name], after[name])
		}
	}
}
