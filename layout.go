package pinbcast

import (
	"pinbcast/internal/core"
	"pinbcast/internal/multidisk"
	"pinbcast/internal/pinwheel"
)

// layoutPlan is a broadcast-program construction: it turns a file set, a
// channel bandwidth (blocks per time unit; 0 asks it to size one, where
// sizing applies) and a scheduler chain (nil: the portfolio) into a
// cyclic broadcast program. Only the pinwheel construction consults the
// bandwidth and the chain.
type layoutPlan func(files []FileSpec, bandwidth int, chain []pinwheel.Scheduler) (*Program, error)

// flat adapts a construction that takes neither a bandwidth nor a chain.
func flat(plan func([]FileSpec) (*Program, error)) layoutPlan {
	return func(files []FileSpec, _ int, _ []pinwheel.Scheduler) (*Program, error) { return plan(files) }
}

// layouts are the constructions Build runs by name (BuildConfig.Layout).
// They are what the paper's construction is compared against; a Station
// always runs the pinwheel construction, the only one that bounds every
// file's worst case:
//
//   - "pinwheel" — the paper's fault-tolerant real-time construction:
//     guarantees mᵢ+rᵢ block slots in every window of B·Tᵢ slots, so
//     every per-file worst case is bounded (the default).
//   - "tiered" — Acharya–Franklin–Zdonik frequency-tiered Broadcast
//     Disks: files are auto-partitioned into hot/cold tiers by latency
//     constraint and hot tiers spin faster, minimizing mean latency
//     over a skewed access pattern. Bounds nothing; the paper's §1
//     comparison point.
//   - "flat-spread" — the uniformly-interleaved flat baseline of
//     Figures 5–6 (Bresenham spacing minimizes δ).
//   - "flat-sequential" — the naive back-to-back flat baseline.
var layouts = registry[layoutPlan]{"layout", map[string]layoutPlan{
	LayoutPinwheel: func(files []FileSpec, bandwidth int, chain []pinwheel.Scheduler) (*Program, error) {
		if bandwidth == 0 {
			// Invalid files yield a meaningless sizing here, but
			// BuildProgramWith validates them before using the bandwidth.
			bandwidth = core.SufficientBandwidth(files)
		}
		return core.BuildProgramWith(files, bandwidth, chain)
	},
	LayoutTiered:         flat(multidisk.Plan),
	LayoutFlatSpread:     flat(core.FlatSpread),
	LayoutFlatSequential: flat(core.FlatSequential),
}}

// LayoutNames returns the names of all registered layouts, sorted.
func LayoutNames() []string { return layouts.names() }

// Built-in layout names.
const (
	LayoutPinwheel       = "pinwheel"        // fault-tolerant real-time construction (§3)
	LayoutTiered         = "tiered"          // frequency-tiered Broadcast Disks (AFZ '95)
	LayoutFlatSpread     = "flat-spread"     // uniformly-interleaved flat baseline
	LayoutFlatSequential = "flat-sequential" // back-to-back flat baseline
)
