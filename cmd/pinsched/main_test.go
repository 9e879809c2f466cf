package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"pinbcast"
)

func TestParseTasks(t *testing.T) {
	sys, err := parseTasks([]string{"1/2", "2/5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys) != 2 || sys[0].A != 1 || sys[0].B != 2 || sys[1].A != 2 || sys[1].B != 5 {
		t.Fatalf("parsed %v", sys)
	}
}

func TestParseTasksErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"12"},
		{"a/2"},
		{"1/b"},
		{"1/2/3"},
		{"3/2"}, // A > B fails validation
		{"0/2"},
	}
	for _, args := range cases {
		if _, err := parseTasks(args); err == nil {
			t.Errorf("parseTasks(%v) accepted", args)
		}
	}
}

// TestMain runs the command itself when PINSCHED_MAIN is set, so that a
// test can run the test binary as pinsched and read its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("PINSCHED_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pinsched runs the command with args and returns its exit status and
// output.
func pinsched(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PINSCHED_MAIN=1")
	out, err := cmd.CombinedOutput()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestEveryNameSchedules: every registered -scheduler name reaches a
// verified schedule, and an unknown name exits with status 2.
func TestEveryNameSchedules(t *testing.T) {
	for _, name := range pinbcast.SchedulerNames() {
		code, out := pinsched(t, "-scheduler", name, "1/2", "1/4")
		if code != 0 || !strings.Contains(out, "result:  schedulable by") {
			t.Errorf("-scheduler %s: exit status %d:\n%s", name, code, out)
		}
	}
	if code, out := pinsched(t, "-scheduler", "mystery", "1/2"); code != 2 || !strings.Contains(out, "unknown scheduler") {
		t.Errorf("-scheduler mystery: exit status %d, want 2:\n%s", code, out)
	}
}
