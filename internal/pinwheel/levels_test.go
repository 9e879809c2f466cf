package pinwheel

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pinbcast/internal/bcerr"
)

func TestTaskLevels(t *testing.T) {
	task := Task{Name: "f", A: 2, B: 8, Later: []int{9, 10}}
	if got := task.String(); got != "(f; 2, [8 9 10])" {
		t.Fatalf("String = %q", got)
	}
	if d := task.Density(); math.Abs(d-0.4) > 1e-12 { // max(2/8, 3/9, 4/10)
		t.Fatalf("Density = %v, want 0.4", d)
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		task Task
		want error
	}{
		{Task{A: 2, B: 8, Later: []int{9, 3}}, bcerr.ErrInfeasible}, // 4 grants in 3 slots
		{Task{A: 2, B: 8, Later: []int{0}}, bcerr.ErrBadSpec},
		{Task{A: 2, B: 8, Later: []int{-4}}, bcerr.ErrBadSpec},
	} {
		if err := c.task.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%v.Validate() = %v, want %v", c.task, err, c.want)
		}
	}
}

// fixedSlots is a scheduler that returns fixed slots, whatever it is
// asked.
type fixedSlots []int

func (fixedSlots) Name() string { return "fixed" }
func (f fixedSlots) Schedule(System) (*Schedule, error) {
	return NewSchedule(append([]int(nil), f...), "fixed"), nil
}

// TestSolveRefusesAMissedLevel: a schedule that meets a task's first
// window but not a later one fails Solve's certificate.
func TestSolveRefusesAMissedLevel(t *testing.T) {
	sys := System{{A: 1, B: 2, Later: []int{3}}} // 1 in every 2, 2 in every 3
	_, err := Solve(sys, []Scheduler{fixedSlots{0, Idle}})
	if !errors.Is(err, ErrSchedulerFailed) || !strings.Contains(err.Error(), "invalid schedule") {
		t.Fatalf("err = %v, want an invalid schedule", err)
	}
	if _, err := Solve(sys, []Scheduler{fixedSlots{0, 0, Idle}}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveFallsThroughAnInvalidSchedule: Solve verifies what each
// member returns, so a member whose schedule satisfies nothing (all
// idle) is passed over for the next one, and no caller sees it.
func TestSolveFallsThroughAnInvalidSchedule(t *testing.T) {
	sys := System{{A: 1, B: 2}, {A: 1, B: 4}}
	sch, err := Solve(sys, []Scheduler{fixedSlots{Idle, Idle, Idle, Idle}, edfMember})
	if err != nil {
		t.Fatal(err)
	}
	if sch.Origin != "EDF" {
		t.Fatalf("Origin %q, want the EDF fallback", sch.Origin)
	}
}

// TestOneWindowSchedulersRefuseLevels: sa, sx and two-distinct take one
// window per task, and the convert member only a system with levels;
// each refusal lets the chain move on.
func TestOneWindowSchedulersRefuseLevels(t *testing.T) {
	levels := System{{A: 1, B: 4, Later: []int{6}}, {A: 1, B: 4}}
	for name, run := range map[string]func(System) (*Schedule, error){"sa": sa, "sx": sx, "two-distinct": twoDistinct} {
		if _, err := run(levels); !errors.Is(err, ErrSchedulerFailed) {
			t.Errorf("%s on %v: err = %v, want ErrSchedulerFailed", name, levels, err)
		}
	}
	if _, err := convert(System{{A: 1, B: 2}, {A: 1, B: 3}}); !errors.Is(err, ErrSchedulerFailed) {
		t.Errorf("convert on a one-window system: err = %v, want ErrSchedulerFailed", err)
	}
	sch, err := convert(levels)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(levels); err != nil || !strings.HasPrefix(sch.Origin, "convert/") {
		t.Fatalf("convert on %v: %v, Origin %q", levels, err, sch.Origin)
	}
}

// levelledSystem draws one to four tasks, A at most 2, first windows
// of 2 to 10 slots and up to two later levels, each 1 to 4 slots past
// the one before, at a density in (0.7, 1]: tight enough to refute
// some, and for the later levels to bind.
func levelledSystem(rng *rand.Rand) System {
	for {
		s := make(System, 1+rng.Intn(4))
		for i := range s {
			s[i].A = 1 + rng.Intn(2)
			s[i].B = s[i].A + 1 + rng.Intn(9-s[i].A)
			b := s[i].B
			for range rng.Intn(3) {
				b += 1 + rng.Intn(4)
				s[i].Later = append(s[i].Later, b)
			}
		}
		if d := s.Density(); d > 0.7 && d <= 1 {
			return s
		}
	}
}

// TestWalkHoldsEveryLevel: on seeded systems with levels, every
// schedule edf or exact returns meets every level, and exact refutes
// none that edf or convert schedules.
func TestWalkHoldsEveryLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	scheduled, refuted := 0, 0
	for trial := 0; trial < 600; trial++ {
		s := levelledSystem(rng)
		_, exactErr := exact(s, exactMaxStates)
		if errors.Is(exactErr, ErrInfeasible) {
			refuted++
		}
		for name, run := range map[string]func(System) (*Schedule, error){
			"edf":     func(s System) (*Schedule, error) { return edf(s, edfMaxSlots) },
			"exact":   func(s System) (*Schedule, error) { return exact(s, exactMaxStates) },
			"convert": convert,
		} {
			sch, err := run(s)
			if err != nil {
				continue
			}
			if err := sch.Verify(s); err != nil {
				t.Fatalf("%s schedules %v as %v, which misses a level: %v", name, s, sch.Slots, err)
			}
			if errors.Is(exactErr, ErrInfeasible) {
				t.Fatalf("%s schedules %v as %v, but exact refutes it: %v", name, s, sch.Slots, exactErr)
			}
			scheduled++
		}
	}
	if scheduled < 1000 || refuted < 20 {
		t.Fatalf("%d schedules and %d refutations: too few to hold the walk to", scheduled, refuted)
	}
	t.Logf("%d schedules, %d systems refuted", scheduled, refuted)
}
