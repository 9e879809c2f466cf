package pinwheel

import (
	"testing"
)

func TestVerifyPaperExample1First(t *testing.T) {
	// {(1,1,2), (2,1,3)} with schedule 1,2,1,2,… (paper, Example 1).
	sys := System{{A: 1, B: 2}, {A: 1, B: 3}}
	sch := NewSchedule([]int{0, 1}, "manual")
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyPaperExample1Second(t *testing.T) {
	// {(1,2,5), (2,1,3)} with schedule 1,2,1,⊔,2,1,2,1,⊔,2,… — the paper
	// writes the repeating pattern 1,2,1,⊔,2.
	sys := System{{A: 2, B: 5}, {A: 1, B: 3}}
	sch := NewSchedule([]int{0, 1, 0, Idle, 1}, "manual")
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesViolation(t *testing.T) {
	sys := System{{A: 1, B: 2}, {A: 1, B: 3}}
	// 1,1,2 violates task 2's window of 3? It appears once per 3 — fine —
	// but task 1 misses the window starting at slot 1: slots {1,2} = 1,2…
	// actually contains task 1 at slot… construct a clear violation:
	sch := NewSchedule([]int{0, 0, 0, 1}, "manual")
	// Task 2 (window 3) misses the window {0,1,2}.
	if err := sch.Verify(sys); err == nil {
		t.Fatal("verification passed a violating schedule")
	}
}

func TestVerifyWindowLargerThanPeriod(t *testing.T) {
	// Window of 5 against a period-2 schedule: every 5 consecutive slots
	// of the infinite repetition contain ≥ 2 grants of each task.
	sys := System{{A: 2, B: 5}, {A: 2, B: 5}}
	sch := NewSchedule([]int{0, 1}, "manual")
	if err := sch.Verify(sys); err != nil {
		t.Fatal(err)
	}
	// But ≥ 3 in every 5 must fail for a half-share task.
	bad := System{{A: 3, B: 5}, {A: 2, B: 5}}
	if err := sch.Verify(bad); err == nil {
		t.Fatal("verification passed an over-constrained system")
	}
}

func TestVerifyNeverScheduledTask(t *testing.T) {
	sys := System{{A: 1, B: 4}, {A: 1, B: 4}}
	sch := NewSchedule([]int{0, 0, 0, 0}, "manual")
	if err := sch.Verify(sys); err == nil {
		t.Fatal("task 2 never scheduled but verification passed")
	}
}

func TestVerifyUnknownTaskIndex(t *testing.T) {
	sys := System{{A: 1, B: 2}}
	sch := NewSchedule([]int{0, 5}, "manual")
	if err := sch.Verify(sys); err == nil {
		t.Fatal("out-of-range task index accepted")
	}
}

func TestVerifyMalformed(t *testing.T) {
	sch := &Schedule{Period: 3, Slots: []int{0}}
	if err := sch.Verify(System{{A: 1, B: 1}}); err == nil {
		t.Fatal("malformed schedule accepted")
	}
}

func TestGrantsAndCount(t *testing.T) {
	sch := NewSchedule([]int{0, 1, 0, Idle, 1, 0}, "manual")
	g := sch.Grants(0)
	if len(g) != 3 || g[0] != 0 || g[1] != 2 || g[2] != 5 {
		t.Fatalf("Grants(0) = %v", g)
	}
	if sch.GrantCount(1) != 2 {
		t.Fatalf("GrantCount(1) = %d", sch.GrantCount(1))
	}
}

func TestUtilization(t *testing.T) {
	sch := NewSchedule([]int{0, Idle, 1, Idle}, "manual")
	if u := sch.Utilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestMaxGap(t *testing.T) {
	// Task 0 at slots 0 and 3 of period 8: gaps 3 and 5 (wrap).
	slots := []int{0, Idle, Idle, 0, Idle, Idle, Idle, Idle}
	sch := NewSchedule(slots, "manual")
	if g := sch.MaxGap(0); g != 5 {
		t.Fatalf("MaxGap = %d, want 5", g)
	}
	if g := sch.MaxGap(1); g != 0 {
		t.Fatalf("MaxGap of absent task = %d, want 0", g)
	}
}
