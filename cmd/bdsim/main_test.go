package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pinbcast"
)

func TestRunSmoke(t *testing.T) {
	if err := run(4, 6, 0.05, false, 1, 3, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunBurstModel(t *testing.T) {
	if err := run(3, 4, 0.04, true, 1, 5, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunTieredLayout(t *testing.T) {
	if err := run(4, 6, 0.05, false, 1, 3, pinbcast.LayoutTiered); err != nil {
		t.Fatal(err)
	}
}

// TestMain runs the command itself when BDSIM_MAIN is set, so that a
// test can run the test binary as bdsim and read its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("BDSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownLayoutExits2: an unregistered -layout name is an invalid
// specification, refused with status 2 like a bad workload.
func TestUnknownLayoutExits2(t *testing.T) {
	for _, c := range []struct {
		layout string
		want   int
	}{{"Tiered", 0}, {"mystery", 2}} {
		cmd := exec.Command(os.Args[0], "-files", "3", "-clients", "2", "-layout", c.layout)
		cmd.Env = append(os.Environ(), "BDSIM_MAIN=1")
		out, err := cmd.CombinedOutput()
		if _, exited := err.(*exec.ExitError); err != nil && !exited {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != c.want {
			t.Errorf("-layout %s: exit status %d, want %d:\n%s", c.layout, code, c.want, out)
		}
	}
}

// counterSnapshot writes a -metrics-out dump and returns the summed
// value of each counter family's sample lines in it.
func counterSnapshot(t *testing.T) map[string]uint64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.txt")
	if err := writeMetricsOut(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	counter := ""
	for _, line := range strings.Split(string(raw), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(typ, " ")
			counter = ""
			if kind == "counter" {
				counter = name
			}
			continue
		}
		if counter == "" || line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if name, _, _ := strings.Cut(series, "{"); !ok || name != counter {
			t.Fatalf("metrics-out line %q is not a sample of %s", line, counter)
		}
		v, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("metrics-out line %q: %v", line, err)
		}
		out[counter] += v
	}
	return out
}

// TestSimModeMetricsOut: the default (simulation) mode runs Receivers,
// so its -metrics-out dump carries what they consumed. The registry
// is process-wide and other tests feed it, so the run's own
// contribution is read as a difference.
func TestSimModeMetricsOut(t *testing.T) {
	before := counterSnapshot(t)
	if err := run(4, 6, 0.05, false, 1, 3, ""); err != nil {
		t.Fatal(err)
	}
	after := counterSnapshot(t)
	for _, name := range []string{"pin_receiver_slots_total", "pin_receiver_blocks_total"} {
		if after[name] <= before[name] {
			t.Errorf("%s did not advance over a sim-mode run: %d → %d", name, before[name], after[name])
		}
	}
}
