package pinbcast

import (
	"slices"

	"pinbcast/internal/pinwheel"
)

// SchedulerNames returns the names of all registered schedulers, sorted:
// the paper's portfolio members and the portfolio itself, the names
// BuildConfig.Schedulers takes.
func SchedulerNames() []string {
	names := make([]string, len(pinwheel.Registered))
	for i, s := range pinwheel.Registered {
		names[i] = s.Name()
	}
	slices.Sort(names)
	return names
}

// Built-in scheduler names.
const (
	SchedulerSa          = "sa"           // power-of-two specialization, buddy allocation
	SchedulerSx          = "sx"           // optimized single-integer specialization
	SchedulerTwoDistinct = "two-distinct" // closed form for systems with two distinct windows
	SchedulerEDF         = "edf"          // the urgency-state walk, earliest deadline first, until a state repeats
	SchedulerExact       = "exact"        // the same walk with backtracking: complete search
	SchedulerPortfolio   = "portfolio"    // the paper's combined portfolio
)
