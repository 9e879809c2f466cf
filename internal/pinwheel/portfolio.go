package pinwheel

import (
	"errors"
	"fmt"
	"slices"

	"pinbcast/internal/bcerr"
)

// Scheduler produces a cyclic schedule for a pinwheel task system.
// Registered lists the built-in ones; applications plug in their own by
// value. Solve certifies every schedule a Scheduler returns, so a buggy
// one can fail a build but never corrupt a broadcast program.
type Scheduler interface {
	// Name identifies the scheduler in registries, flags and tables.
	Name() string
	// Schedule returns a cyclic schedule for the system, or an error
	// wrapping ErrInfeasible (proved impossibility) or another typed
	// error.
	Schedule(s System) (*Schedule, error)
}

// member adapts a scheduling function to Scheduler.
type member struct {
	name string
	run  func(System) (*Schedule, error)
}

func (m member) Name() string                         { return m.name }
func (m member) Schedule(s System) (*Schedule, error) { return m.run(s) }

// The portfolio's members at their full budgets.
var (
	sxMember          = member{"sx", sx}
	twoDistinctMember = member{"two-distinct", twoDistinct}
	edfMember         = member{"edf", func(s System) (*Schedule, error) { return edf(s, edfMaxSlots) }}
	exactMember       = member{"exact", func(s System) (*Schedule, error) { return exact(s, exactMaxStates) }}
)

// portfolio is the paper's §3.1 portfolio and Solve's default chain: Sx
// (which subsumes Sa), the two-distinct closed form, EDF, and the exact
// search, the one member that can prove infeasibility.
var portfolio = []Scheduler{sxMember, twoDistinctMember, edfMember, exactMember}

// Capped is the portfolio at the budgets a bandwidth scan can afford:
// EDF stops at 2¹⁶ slots and there is no exact search, so a
// near-infeasible candidate fails fast. Whatever it schedules, the
// portfolio schedules too.
var Capped = []Scheduler{sxMember, twoDistinctMember,
	member{"edf", func(s System) (*Schedule, error) { return edf(s, 1<<16) }}}

// Registered lists the built-in schedulers under their registry names:
// Holte et al.'s Sa, the portfolio's members, and the portfolio itself.
var Registered = []Scheduler{member{"sa", sa}, sxMember, twoDistinctMember, edfMember, exactMember,
	member{"portfolio", func(s System) (*Schedule, error) { return Solve(s, nil) }}}

// Solve runs the chain in order — the portfolio when it is empty — and
// returns the first schedule that passes Verify; its Origin names the
// member that produced it. It is the one loop that runs schedulers.
//
// The error wraps ErrInfeasible only when infeasibility is proved: a
// density above 1, refused before any member runs, or a member's proof.
// Otherwise it wraps ErrSchedulerFailed around the first failure and the
// instance's feasibility is undecided. A nil member wraps ErrBadSpec.
func Solve(s System, chain []Scheduler) (*Schedule, error) {
	if len(chain) == 0 {
		chain = portfolio
	}
	if slices.Contains(chain, nil) {
		return nil, fmt.Errorf("pinwheel: nil scheduler in chain: %w", bcerr.ErrBadSpec)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Density() > 1.0+1e-12 {
		return nil, fmt.Errorf("%w: density %.4f exceeds 1", ErrInfeasible, s.Density())
	}
	var firstErr error
	for _, m := range chain {
		sch, err := m.Schedule(s)
		if err == nil {
			// Certify independently of the member that produced it.
			if err = sch.Verify(s); err == nil {
				return sch, nil
			}
			err = fmt.Errorf("invalid schedule: %w", err)
		} else if errors.Is(err, ErrInfeasible) {
			return nil, fmt.Errorf("pinwheel: scheduler %q: %w", m.Name(), err)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("scheduler %q: %w", m.Name(), err)
		}
	}
	return nil, fmt.Errorf("%w (first failure: %w)", ErrSchedulerFailed, firstErr)
}
