package exp

import (
	"strconv"
	"testing"
)

func TestMultidiskVsPinwheelTable(t *testing.T) {
	tbl, err := MultidiskVsPinwheel()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[6] != "true" {
			t.Fatalf("pinwheel violated a window: %v", row)
		}
	}
	// The multi-disk program must violate at least one window — the
	// paper's reason to exist.
	violated := false
	for _, row := range tbl.Rows {
		window, _ := strconv.Atoi(row[1])
		worst, _ := strconv.Atoi(row[3])
		if worst > window {
			violated = true
		}
	}
	if !violated {
		t.Fatal("multi-disk met every window; comparison lost its point")
	}
}

func TestSchedulerDeltaAblationTable(t *testing.T) {
	tbl, err := SchedulerDeltaAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// At least two schedulers must produce different δ_A — otherwise
	// the ablation shows nothing.
	seen := map[string]bool{}
	for _, row := range tbl.Rows {
		seen[row[2]] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all schedulers produced identical δ_A: %v", seen)
	}
}
