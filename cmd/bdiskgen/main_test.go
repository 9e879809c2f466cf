package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"pinbcast"
)

func TestSpecParsing(t *testing.T) {
	raw := []byte(`{
		"files": [
			{"name": "traffic", "blocks": 4, "latency": 8, "faults": 1},
			{"name": "map", "blocks": 8, "latency": 40, "width": 12}
		]
	}`)
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Files) != 2 || s.Files[0].Faults != 1 || s.Files[1].Width != 12 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestGeneralizedSpecParsing(t *testing.T) {
	raw := []byte(`{"generalized": [{"name": "A", "blocks": 2, "latencies": [8, 10]}]}`)
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Generalized) != 1 || len(s.Generalized[0].Latencies) != 2 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestRunRegular(t *testing.T) {
	var s spec
	raw := []byte(`{"files": [
		{"name": "a", "blocks": 2, "latency": 8, "faults": 1},
		{"name": "b", "blocks": 1, "latency": 6}
	]}`)
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if err := runRegular(s, pinbcast.BuildConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := runRegular(s, pinbcast.BuildConfig{Bandwidth: 2, Schedulers: []string{pinbcast.SchedulerEDF}}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGeneralized(t *testing.T) {
	var s spec
	raw := []byte(`{"generalized": [
		{"name": "A", "blocks": 2, "latencies": [8, 10]},
		{"name": "B", "blocks": 1, "latencies": [6]}
	]}`)
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if err := runRegular(s, pinbcast.BuildConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRegularTieredLayout(t *testing.T) {
	// Cold listed first: AutoTier reorders hottest-first, so the report
	// path must resolve files by name rather than spec index.
	var s spec
	raw := []byte(`{"files": [
		{"name": "cold", "blocks": 2, "latency": 16},
		{"name": "hot", "blocks": 1, "latency": 2}
	]}`)
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if err := runRegular(s, pinbcast.BuildConfig{Layout: pinbcast.LayoutTiered}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRegularRejectsBadSpec(t *testing.T) {
	var s spec
	raw := []byte(`{"files": [{"name": "a", "blocks": 0, "latency": 8}]}`)
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if err := runRegular(s, pinbcast.BuildConfig{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestMain runs the command itself when BDISKGEN_MAIN is set, so that a
// test can run the test binary as bdiskgen and read its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("BDISKGEN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bdiskgen runs the command with args and returns its exit status.
func bdiskgen(t *testing.T, args ...string) int {
	t.Helper()
	code, _ := bdiskgenOut(t, args...)
	return code
}

// bdiskgenOut runs the command with args and returns its exit status
// and what it wrote to stdout.
func bdiskgenOut(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BDISKGEN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	t.Logf("bdiskgen %v:\n%s%s", args, out, stderr.Bytes())
	return cmd.ProcessState.ExitCode(), string(out)
}

// writeSpec writes a spec file into a fresh directory and returns its
// path and the path of a program file beside it.
func writeSpec(t *testing.T, raw string) (spec, out string) {
	t.Helper()
	dir := t.TempDir()
	spec, out = filepath.Join(dir, "spec.json"), filepath.Join(dir, "out.json")
	if err := os.WriteFile(spec, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return spec, out
}

// TestGeneralizedSpecTakesOutAlone: -out writes a §4 spec's program,
// built at bandwidth 1 like any spec's, and -scheduler runs its chain on
// it. -bandwidth, which its slot latencies fix at 1, and a layout that
// bounds no latency vector are refused with status 2 before anything is
// written.
func TestGeneralizedSpecTakesOutAlone(t *testing.T) {
	spec, out := writeSpec(t, `{"generalized": [{"name": "A", "blocks": 2, "latencies": [8, 10]}]}`)
	var p struct {
		Slots     []int  `json:"slots"`
		Bandwidth int    `json:"bandwidth"`
		Origin    string `json:"origin"`
	}
	for _, c := range []struct {
		flags  []string
		origin string
	}{{nil, "pinwheel/EDF"}, {[]string{"-scheduler", "exact"}, "pinwheel/Exact"}} {
		if code := bdiskgen(t, append([]string{"-spec", spec, "-out", out}, c.flags...)...); code != 0 {
			t.Fatalf("%v: exit status %d", c.flags, code)
		}
		if raw, err := os.ReadFile(out); err != nil {
			t.Fatalf("%v: -out was not written: %v", c.flags, err)
		} else if err := json.Unmarshal(raw, &p); err != nil || len(p.Slots) == 0 || p.Bandwidth != 1 || p.Origin != c.origin {
			t.Fatalf("%v: -out holds no §4 program by %s (%v): %s", c.flags, c.origin, err, raw)
		}
	}
	for _, flags := range [][]string{{"-layout", "tiered"}, {"-layout", "flat-spread"}, {"-bandwidth", "99"}} {
		if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if code := bdiskgen(t, append([]string{"-spec", spec, "-out", out}, flags...)...); code != 2 {
			t.Errorf("%v: exit status %d, want 2", flags, code)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: a refused run wrote %s", flags, out)
		}
	}
}

// TestSpecDropsNothing: a spec that lists both kinds of file, whose
// latencies count different units, or names a key the format does not
// know is refused with status 2 and no report, not built in part.
func TestSpecDropsNothing(t *testing.T) {
	for _, raw := range []string{
		`{"files": [{"name": "A", "blocks": 2, "latency": 8}], "generalized": [{"name": "B", "blocks": 1, "latencies": [4, 6]}]}`,
		`{"files": [{"name": "A", "blocks": 2, "latency": 8, "fault": 1}]}`,
		`{"file": [{"name": "A", "blocks": 2, "latency": 8}]}`,
		`{"generalized": [{"name": "A", "blocks": 2, "latencies": [8, 10], "faults": 1}]}`,
	} {
		spec, _ := writeSpec(t, raw)
		code, out := bdiskgenOut(t, "-spec", spec)
		if code != 2 {
			t.Errorf("%s: exit status %d, want 2", raw, code)
		}
		if out != "" {
			t.Errorf("%s: a refused spec printed a report:\n%s", raw, out)
		}
	}
}

// TestUnknownNamesExit2: an unregistered -layout or -scheduler name,
// the empty one in a chain included, is an invalid specification: exit
// status 2 and no report on stdout.
func TestUnknownNamesExit2(t *testing.T) {
	spec, _ := writeSpec(t, `{"files": [{"name": "a", "blocks": 2, "latency": 8, "faults": 1}]}`)
	if code := bdiskgen(t, "-spec", spec, "-layout", "tiered", "-scheduler", "sa,edf"); code != 0 {
		t.Fatalf("registered names: exit status %d", code)
	}
	for _, flags := range [][]string{{"-layout", "mystery"}, {"-scheduler", "mystery"}, {"-scheduler", "sx,"}} {
		code, out := bdiskgenOut(t, append([]string{"-spec", spec}, flags...)...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2", flags, code)
		}
		if out != "" {
			t.Errorf("%v: a refused run printed a report:\n%s", flags, out)
		}
	}
}
