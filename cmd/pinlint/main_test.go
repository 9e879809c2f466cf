package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestKnownBadFixture smokes the multichecker end to end: the bad
// fixture packages must produce diagnostics and exit status 1.
func TestKnownBadFixture(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"pinbcast/internal/analyzers/testdata/src/hotpathbad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "hotpath") {
		t.Errorf("diagnostics missing hotpath findings:\n%s", stdout.String())
	}
}

// TestRealTreeClean asserts the analyzers pass on the actual module —
// the invariant CI enforces.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"pinbcast/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("pinlint on the real tree: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestListFlag keeps the -list inventory in sync with the suite.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit code = %d", code)
	}
	names := []string{"hotpath", "norand", "lockcheck", "lockorder", "goroleak", "cycleboundary", "errwrap", "chansafe", "cancelflow", "slotmath", "waiverlint"}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(names), stdout.String())
	}
	for i, name := range names {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("-list line %d = %q, want analyzer %s", i, lines[i], name)
		}
	}
}

// TestWaiverReport smokes -waivers: the inventory lists each waiver
// with its analyzers and justification, then a count.
func TestWaiverReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-waivers", "pinbcast/internal/analyzers/testdata/src/waiverlintgood"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "norand") || !strings.Contains(out, "fixture jitter need not be reproducible") {
		t.Errorf("inventory missing a waiver's analyzers or justification:\n%s", out)
	}
	if !strings.Contains(out, "2 waivers") {
		t.Errorf("inventory missing the count:\n%s", out)
	}
}
