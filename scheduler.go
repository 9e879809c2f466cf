package pinbcast

import (
	"errors"
	"fmt"

	"pinbcast/internal/pinwheel"
)

// Scheduler produces a cyclic schedule for a pinwheel task system. The
// package registers the paper's portfolio members (Sa, Sx, EDF, the
// two-distinct specialization, the exact search, and the combined
// portfolio) under their names (LookupScheduler); applications plug in
// their own implementations by value and select or order them per
// Station with WithSchedulers. Every schedule a Scheduler returns is
// re-verified against the system before use, so a buggy third-party
// scheduler can fail a build but never corrupt a broadcast program.
type Scheduler interface {
	// Name identifies the scheduler in registries, flags and Origin
	// strings.
	Name() string
	// Schedule returns a verified cyclic schedule for the system, or an
	// error wrapping ErrInfeasible (proved impossibility) or another
	// typed error.
	Schedule(sys TaskSystem) (*Schedule, error)
}

// schedulerFunc adapts a function to the Scheduler interface.
type schedulerFunc struct {
	name string
	run  func(TaskSystem) (*Schedule, error)
}

func (s schedulerFunc) Name() string                               { return s.name }
func (s schedulerFunc) Schedule(sys TaskSystem) (*Schedule, error) { return s.run(sys) }

var schedulers = newRegistry[Scheduler]("scheduler",
	schedulerFunc{SchedulerSa, pinwheel.Sa},
	schedulerFunc{SchedulerSx, pinwheel.Sx},
	schedulerFunc{SchedulerTwoDistinct, pinwheel.TwoDistinct},
	schedulerFunc{SchedulerEDF, func(sys TaskSystem) (*Schedule, error) { return pinwheel.EDF(sys, 0) }},
	schedulerFunc{SchedulerExact, func(sys TaskSystem) (*Schedule, error) { return pinwheel.Exact(sys, 0) }},
	schedulerFunc{SchedulerPortfolio, func(sys TaskSystem) (*Schedule, error) { return pinwheel.Solve(sys, nil) }},
)

// LookupScheduler returns the registered scheduler with the given name.
func LookupScheduler(name string) (Scheduler, bool) { return schedulers.lookup(name) }

// SchedulerNames returns the names of all registered schedulers,
// sorted.
func SchedulerNames() []string { return schedulers.names() }

// Built-in scheduler names.
const (
	SchedulerSa          = "sa"           // power-of-two specialization, buddy allocation
	SchedulerSx          = "sx"           // optimized single-integer specialization
	SchedulerTwoDistinct = "two-distinct" // closed form for systems with two distinct windows
	SchedulerEDF         = "edf"          // greedy earliest-deadline with cycle detection
	SchedulerExact       = "exact"        // complete search over urgency states
	SchedulerPortfolio   = "portfolio"    // the paper's combined portfolio
)

// solveChain runs the schedulers in order and returns the first
// verified schedule. Like the portfolio, it returns ErrInfeasible only
// when a scheduler proves infeasibility; any other failure leaves the
// instance undecided and reports the first failure seen. An empty
// chain falls back to the portfolio.
func solveChain(sys TaskSystem, chain []Scheduler) (*Schedule, error) {
	if len(chain) == 0 {
		return pinwheel.Solve(sys, nil)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.Density() > 1.0+1e-12 {
		return nil, fmt.Errorf("pinbcast: density %.4f exceeds 1: %w", sys.Density(), ErrInfeasible)
	}
	var firstErr error
	for _, s := range chain {
		sch, err := s.Schedule(sys)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				return nil, fmt.Errorf("pinbcast: scheduler %q: %w", s.Name(), err)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("scheduler %q: %w", s.Name(), err)
			}
			continue
		}
		// Certify independently of the scheduler that produced it.
		if err := sch.Verify(sys); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("scheduler %q returned an invalid schedule: %w", s.Name(), err)
			}
			continue
		}
		return sch, nil
	}
	return nil, fmt.Errorf("%w (first failure: %w)", pinwheel.ErrSchedulerFailed, firstErr)
}
