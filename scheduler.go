package pinbcast

import "pinbcast/internal/pinwheel"

// Scheduler produces a cyclic schedule for a pinwheel task system. The
// package registers the paper's portfolio members (Sa, Sx, the
// two-distinct specialization, EDF and the exact search — one walk over
// urgency states, greedy and backtracking — and the combined portfolio)
// under their names (LookupScheduler); applications plug in their own
// implementations by value and select or order them per build with
// BuildConfig.Schedulers. A Station runs the portfolio. Every chain
// runs through one loop that re-verifies each schedule against the
// system before use, so a buggy third-party scheduler can fail a build
// but never corrupt a broadcast program.
type Scheduler = pinwheel.Scheduler

var schedulers = newRegistry("scheduler", pinwheel.Registered...)

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
	SchedulerEDF         = "edf"          // the urgency-state walk, earliest deadline first, until a state repeats
	SchedulerExact       = "exact"        // the same walk with backtracking: complete search
	SchedulerPortfolio   = "portfolio"    // the paper's combined portfolio
)
