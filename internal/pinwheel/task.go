// Package pinwheel implements pinwheel task systems and schedulers
// (§3 of Baruah & Bestavros; Holte et al. 1989; Chan & Chin 1992).
//
// A pinwheel task (a, b) must be allocated a shared slotted resource for
// at least a out of every b consecutive time slots (the Integral Boundary
// Constraint). A system is a set of such tasks sharing one resource. The
// ratio a/b is the task's density; the system density is the sum.
//
// The package provides:
//
//   - an exact cyclic verifier (Verify) used to certify every schedule,
//   - Sa: single-number (power-of-two) specialization with buddy
//     allocation — schedules every system with density ≤ 1/2,
//   - Sx: single-integer specialization with an optimized base in the
//     style of Chan & Chin's integer-reduction schedulers,
//   - EDF: greedy earliest-deadline scheduling with cycle detection,
//   - Exact: complete search over urgency states for small systems,
//   - Schedule: a portfolio driver combining all of the above,
//   - DensityTestCC: Chan & Chin's sufficient schedulability condition
//     (density ≤ 7/10) exactly as the paper uses it for bandwidth sizing.
package pinwheel

import (
	"errors"
	"fmt"
	"strings"

	"pinbcast/internal/bcerr"
)

// Task is a pinwheel task: the resource must be allocated to it for at
// least A out of every B consecutive slots.
type Task struct {
	Name string // optional human-readable identity
	A    int    // computation requirement (slots per window)
	B    int    // window size (the real-time constraint)
}

// Density returns A/B.
func (t Task) Density() float64 { return float64(t.A) / float64(t.B) }

// String renders the task as in the paper, e.g. "(name; 2, 5)".
func (t Task) String() string {
	if t.Name == "" {
		return fmt.Sprintf("(%d, %d)", t.A, t.B)
	}
	return fmt.Sprintf("(%s; %d, %d)", t.Name, t.A, t.B)
}

// Validate checks that the task parameters are positive integers with
// A ≤ B (a task with A > B is trivially infeasible).
func (t Task) Validate() error {
	switch {
	case t.A < 1:
		return fmt.Errorf("pinwheel: task %s has A < 1: %w", t, bcerr.ErrBadSpec)
	case t.B < 1:
		return fmt.Errorf("pinwheel: task %s has B < 1: %w", t, bcerr.ErrBadSpec)
	case t.A > t.B:
		return fmt.Errorf("pinwheel: task %s has A > B: %w", t, bcerr.ErrInfeasible)
	}
	return nil
}

// System is a set of pinwheel tasks sharing a single slotted resource.
type System []Task

// Density returns the sum of task densities. A density above 1 makes the
// system trivially infeasible; density ≤ 7/10 makes it schedulable by
// Chan & Chin's result.
func (s System) Density() float64 {
	d := 0.0
	for _, t := range s {
		d += t.Density()
	}
	return d
}

// Validate checks every task and that the system is non-empty.
func (s System) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("pinwheel: empty system: %w", bcerr.ErrBadSpec)
	}
	for _, t := range s {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MinWindow returns the smallest window size in the system.
func (s System) MinWindow() int {
	if len(s) == 0 {
		return 0
	}
	min := s[0].B
	for _, t := range s[1:] {
		if t.B < min {
			min = t.B
		}
	}
	return min
}

// String renders the system as in the paper, e.g. "{(1, 2), (1, 3)}".
func (s System) String() string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// DensityTestCC reports whether the system passes Chan & Chin's
// sufficient schedulability condition: density ≤ 7/10. This is the test
// the paper's Equations 1 and 2 are built on. A small epsilon absorbs
// floating-point rounding for systems whose density is exactly 7/10.
func DensityTestCC(s System) bool {
	const eps = 1e-9
	return s.Density() <= 0.7+eps
}

// Sentinel errors reported by the schedulers. ErrInfeasible is the
// shared bcerr sentinel so that errors.Is classification works across
// layers and through the public facade.
var (
	// ErrInfeasible indicates the system provably has no schedule.
	ErrInfeasible = bcerr.ErrInfeasible
	// ErrSchedulerFailed indicates this scheduler could not produce a
	// schedule; the system may still be feasible for another scheduler.
	ErrSchedulerFailed = errors.New("pinwheel: scheduler failed to find a schedule")
	// ErrTooLarge indicates the instance exceeds the scheduler's search
	// or period limits, leaving feasibility undecided.
	ErrTooLarge = errors.New("pinwheel: instance too large for this scheduler")
)
