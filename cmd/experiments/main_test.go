package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// TestRunMatchesGolden pins every table run prints to
// testdata/experiments.golden, byte for byte but for E10's wall-clock
// column (maskTiming). After a change that moves a table on purpose,
// rerun with -update and review the diff.
func TestRunMatchesGolden(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run("", &out, &errw); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errw.String())
	}
	got := []byte(maskTiming(out.String()))
	golden := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d drifted from the golden file\n got: %q\nwant: %q", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, the golden file has %d", len(gotLines), len(wantLines))
	}
}

// maskTiming replaces the last cell of each E10 row, the measured
// reconstruction time, with "*".
func maskTiming(out string) string {
	lines := strings.Split(out, "\n")
	inE10, rows := false, false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "== "):
			inE10, rows = strings.HasPrefix(l, "== E10:"), false
		case !inE10 || l == "" || strings.HasPrefix(l, "  note:"):
		case strings.HasPrefix(l, "  --"):
			rows = true
		case rows:
			lines[i] = l[:strings.LastIndex(strings.TrimRight(l, " "), " ")+1] + "*"
		}
	}
	return strings.Join(lines, "\n")
}

// TestRunAllExperiments drives the command end to end: every experiment
// regenerates and prints, the paper's table IDs all appear, and nothing
// lands on stderr.
func TestRunAllExperiments(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run("", &out, &errw); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errw.String())
	}
	if errw.Len() != 0 {
		t.Fatalf("stderr: %s", errw.String())
	}
	for _, id := range []string{"E1", "E5", "E12", "E14"} {
		if !strings.Contains(out.String(), "== "+id+":") {
			t.Fatalf("experiment %s missing from output", id)
		}
	}
}

func TestRunOnlyFilters(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run("E12", &out, &errw); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errw.String())
	}
	if got := strings.Count(out.String(), "== E"); got != 1 {
		t.Fatalf("printed %d tables, want exactly 1", got)
	}
}

// TestRunUnknownIDExitsNonZero pins the CLI contract: -only with an
// unknown experiment ID is a failure, not silence.
func TestRunUnknownIDExitsNonZero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run("E99", &out, &errw); code == 0 {
		t.Fatal("unknown experiment ID exited zero")
	}
	if !strings.Contains(errw.String(), "E99") {
		t.Fatalf("stderr does not name the unknown ID: %s", errw.String())
	}
}
