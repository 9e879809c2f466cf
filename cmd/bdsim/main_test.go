package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
