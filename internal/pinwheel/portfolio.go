package pinwheel

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"pinbcast/internal/algebra"
	"pinbcast/internal/bcerr"
)

// Scheduler produces a cyclic schedule for a pinwheel task system.
// Registered lists the built-in ones, and Named finds them by name.
// Solve certifies every schedule a Scheduler returns, so a faulty one
// can fail a build but never corrupt a broadcast program.
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

// oneWindowPortfolio is the paper's §3.1 portfolio: Sx (which subsumes
// Sa), two-distinct, EDF, and exact, the one member that can prove
// infeasibility. Solve's default chain adds convert before exact.
var (
	oneWindowPortfolio = []Scheduler{sxMember, twoDistinctMember, edfMember, exactMember}
	portfolio          = []Scheduler{sxMember, twoDistinctMember, edfMember, member{"convert", convert}, exactMember}
)

// Capped is the portfolio at the budgets a bandwidth scan can afford:
// EDF stops at 2¹⁶ slots and there is no exact search, so a
// near-infeasible candidate fails fast. Whatever it schedules, the
// portfolio schedules too.
var Capped = []Scheduler{sxMember, twoDistinctMember,
	member{"edf", func(s System) (*Schedule, error) { return edf(s, 1<<16) }}}

// Registered lists the built-in schedulers under their names: Holte et
// al.'s Sa, the portfolio's members, and the portfolio itself.
var Registered = []Scheduler{member{"sa", sa}, sxMember, twoDistinctMember, edfMember, exactMember,
	member{"portfolio", func(s System) (*Schedule, error) { return Solve(s, nil) }}}

// Named returns the registered schedulers with the given names, in
// order: a chain for Solve. No names is the nil chain, the portfolio.
// An unknown name, the empty one included, wraps ErrBadSpec; the
// caller that lists names to its user lists them beside it.
func Named(names ...string) ([]Scheduler, error) {
	var chain []Scheduler
	for _, name := range names {
		i := slices.IndexFunc(Registered, func(s Scheduler) bool { return s.Name() == name })
		if i < 0 {
			return nil, fmt.Errorf("pinwheel: unknown scheduler %q: %w", name, bcerr.ErrBadSpec)
		}
		chain = append(chain, Registered[i])
	}
	return chain, nil
}

// Solve runs the chain in order — the portfolio when it is empty — and
// returns the first schedule that passes Verify; its Origin names the
// member that produced it. It is the one loop that runs schedulers.
//
// The error wraps ErrInfeasible only when infeasibility is proved: a
// density above 1, refused before any member runs, or a member's proof.
// Otherwise it wraps ErrSchedulerFailed around the first failure and the
// instance's feasibility is undecided.
func Solve(s System, chain []Scheduler) (*Schedule, error) {
	if len(chain) == 0 {
		chain = portfolio
	}
	return solve(s, chain)
}

// solve is Solve on a non-empty chain.
func solve(s System, chain []Scheduler) (*Schedule, error) {
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

// convert schedules a system with levels by §4.2's conversion: task i
// is bc(i, A, [B, Later…]), algebra.Convert's nice conjuncts of them
// are scheduled as one-window tasks, and each member's slots go to the
// task it maps to. A conjunct is stronger than its task, so its
// infeasibility proves nothing, and a one-window system is refused.
func convert(s System) (*Schedule, error) {
	if !slices.ContainsFunc(s, func(t Task) bool { return len(t.Later) > 0 }) {
		return nil, fmt.Errorf("%w: no task has levels to convert", ErrSchedulerFailed)
	}
	var conj System
	var owner []int // the task each conjunct member maps to
	for i, t := range s {
		n, err := algebra.Convert(algebra.BC{Task: strconv.Itoa(i), M: t.A, D: append([]int{t.B}, t.Later...)})
		if err != nil {
			return nil, fmt.Errorf("%w: task %d %s: %w", ErrSchedulerFailed, i, t, err)
		}
		for _, m := range n {
			conj = append(conj, Task{Name: m.Task, A: m.A, B: m.B})
			owner = append(owner, i)
		}
	}
	sch, err := solve(conj, oneWindowPortfolio)
	if err != nil {
		return nil, fmt.Errorf("%w: conjunct %s: %v", ErrSchedulerFailed, conj, err) //pinlint:allow errwrap — the conjunct's infeasibility is not the tasks'; a proof must not reach Solve
	}
	for k, v := range sch.Slots {
		if v != Idle {
			sch.Slots[k] = owner[v]
		}
	}
	return NewSchedule(sch.Slots, "convert/"+sch.Origin), nil
}
