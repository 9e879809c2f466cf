package pinwheel

import (
	"math"
	"strings"
	"testing"
)

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		task Task
		ok   bool
	}{
		{Task{A: 1, B: 2}, true},
		{Task{A: 5, B: 5}, true},
		{Task{A: 0, B: 2}, false},
		{Task{A: 1, B: 0}, false},
		{Task{A: 3, B: 2}, false},
		{Task{A: -1, B: 2}, false},
	}
	for _, c := range cases {
		if err := c.task.Validate(); (err == nil) != c.ok {
			t.Errorf("%v.Validate() = %v, want ok=%v", c.task, err, c.ok)
		}
	}
}

func TestTaskDensity(t *testing.T) {
	if d := (Task{A: 1, B: 2}).Density(); d != 0.5 {
		t.Fatalf("density = %v, want 0.5", d)
	}
	if d := (Task{A: 7, B: 10}).Density(); math.Abs(d-0.7) > 1e-12 {
		t.Fatalf("density = %v, want 0.7", d)
	}
}

func TestSystemDensity(t *testing.T) {
	s := System{{A: 1, B: 2}, {A: 1, B: 3}}
	if d := s.Density(); math.Abs(d-5.0/6.0) > 1e-12 {
		t.Fatalf("density = %v, want 5/6", d)
	}
}

func TestSystemValidate(t *testing.T) {
	if err := (System{}).Validate(); err == nil {
		t.Fatal("empty system validated")
	}
	if err := (System{{A: 1, B: 2}, {A: 0, B: 3}}).Validate(); err == nil {
		t.Fatal("invalid member validated")
	}
	if err := (System{{A: 1, B: 2}}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxWindow(t *testing.T) {
	s := System{{A: 1, B: 7}, {A: 1, B: 3}, {A: 1, B: 12}}
	if s.MinWindow() != 3 {
		t.Fatalf("min = %d, want 3", s.MinWindow())
	}
	if (System{}).MinWindow() != 0 {
		t.Fatal("empty MinWindow != 0")
	}
}

func TestDensityTestCC(t *testing.T) {
	// Exactly 7/10 must pass (the bound is inclusive).
	if !DensityTestCC(System{{A: 7, B: 10}}) {
		t.Fatal("density 0.7 rejected")
	}
	if DensityTestCC(System{{A: 7, B: 10}, {A: 1, B: 1000}}) {
		t.Fatal("density 0.701 accepted")
	}
	if !DensityTestCC(System{{A: 1, B: 2}, {A: 1, B: 5}}) {
		t.Fatal("density 0.7 (1/2+1/5) rejected")
	}
}

func TestStringFormats(t *testing.T) {
	task := Task{Name: "F1", A: 2, B: 5}
	if got := task.String(); got != "(F1; 2, 5)" {
		t.Fatalf("task string = %q", got)
	}
	s := System{{A: 1, B: 2}, {A: 1, B: 3}}
	if got := s.String(); got != "{(1, 2), (1, 3)}" {
		t.Fatalf("system string = %q", got)
	}
	sch := NewSchedule([]int{0, 1, 0, Idle}, "test")
	if got := sch.String(); !strings.Contains(got, "⊔") || !strings.HasPrefix(got, "1, 2, 1") {
		t.Fatalf("schedule string = %q", got)
	}
}
