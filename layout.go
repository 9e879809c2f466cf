package pinbcast

import (
	"pinbcast/internal/core"
	"pinbcast/internal/multidisk"
)

// Layout is a broadcast-program construction strategy: it turns a file
// set and a channel bandwidth (blocks per time unit; 0 asks the layout
// to size it, where sizing applies) into a cyclic broadcast program.
// Layouts are the construction counterpart of the Scheduler seam: a
// Scheduler orders pinwheel tasks inside the real-time construction,
// while a Layout decides which construction runs at all. The package
// registers four:
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
//
// LookupLayout finds them by name; applications plug in their own by
// value, per Build (BuildConfig.Layout) or per Station (WithLayout).
type Layout interface {
	// Name identifies the layout in registries and flags.
	Name() string
	// Plan constructs the broadcast program for the files at the given
	// bandwidth. Layouts that ignore bandwidth (the flat baselines, the
	// tiered layout) accept 0.
	Plan(files []FileSpec, bandwidth int) (*Program, error)
}

// layoutFunc adapts a function to the Layout interface.
type layoutFunc struct {
	name string
	plan func([]FileSpec, int) (*Program, error)
}

func (l layoutFunc) Name() string { return l.name }
func (l layoutFunc) Plan(files []FileSpec, bandwidth int) (*Program, error) {
	return l.plan(files, bandwidth)
}

var layouts = newRegistry[Layout]("layout",
	pinwheelLayout{},
	layoutFunc{LayoutTiered, func(files []FileSpec, _ int) (*Program, error) { return multidisk.Plan(files) }},
	layoutFunc{LayoutFlatSpread, func(files []FileSpec, _ int) (*Program, error) { return core.FlatSpread(files) }},
	layoutFunc{LayoutFlatSequential, func(files []FileSpec, _ int) (*Program, error) { return core.FlatSequential(files) }},
)

// LookupLayout returns the registered layout with the given name.
func LookupLayout(name string) (Layout, bool) { return layouts.lookup(name) }

// LayoutNames returns the names of all registered layouts, sorted.
func LayoutNames() []string { return layouts.names() }

// Built-in layout names.
const (
	LayoutPinwheel       = "pinwheel"        // fault-tolerant real-time construction (§3)
	LayoutTiered         = "tiered"          // frequency-tiered Broadcast Disks (AFZ '95)
	LayoutFlatSpread     = "flat-spread"     // uniformly-interleaved flat baseline
	LayoutFlatSequential = "flat-sequential" // back-to-back flat baseline
)

// pinwheelLayout is the registered "pinwheel" layout. It is a distinct
// type (not a layoutFunc closure) so that Build and Station.plan can
// recognize the built-in construction structurally and compose it with
// the configured scheduler chain; a third-party layout that merely
// reuses the name is dispatched like any other custom layout.
type pinwheelLayout struct{}

func (pinwheelLayout) Name() string { return LayoutPinwheel }
func (pinwheelLayout) Plan(files []FileSpec, bandwidth int) (*Program, error) {
	if bandwidth == 0 {
		bandwidth = core.SufficientBandwidth(files)
	}
	return core.BuildProgram(files, bandwidth)
}

// isBuiltinPinwheel reports whether l is the built-in pinwheel layout
// (or nil, the default that means the same construction).
func isBuiltinPinwheel(l Layout) bool {
	if l == nil {
		return true
	}
	_, ok := l.(pinwheelLayout)
	return ok
}
