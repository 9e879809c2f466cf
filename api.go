package pinbcast

import (
	"cmp"
	"fmt"
	"slices"

	"pinbcast/internal/channel"
	"pinbcast/internal/client"
	"pinbcast/internal/core"
	"pinbcast/internal/ida"
	"pinbcast/internal/pinwheel"
	"pinbcast/internal/rtdb"
	"pinbcast/internal/server"
)

// Broadcast-disk specification and construction (internal/core).
type (
	// FileSpec describes a fault-tolerant real-time broadcast file:
	// Blocks (m), Latency (T), Faults (r), an optional AIDA
	// DispersalWidth and an optional per-fault-level latency vector
	// Latencies (§4).
	FileSpec = core.FileSpec
	// Program is a cyclic broadcast program with AIDA block rotation.
	Program = core.Program
)

// Idle marks an unallocated slot in programs and schedules.
const Idle = core.Idle

// NecessaryBandwidth returns Σ (mᵢ+rᵢ)/Tᵢ, the bandwidth lower bound.
func NecessaryBandwidth(files []FileSpec) float64 { return core.NecessaryBandwidth(files) }

// SufficientBandwidth returns the paper's Equation 1/2 bandwidth
// ⌈10/7 · Σ (mᵢ+rᵢ)/Tᵢ⌉, sufficient for schedulability.
func SufficientBandwidth(files []FileSpec) int { return core.SufficientBandwidth(files) }

// MinBandwidth returns the smallest bandwidth at which the scheduler
// portfolio constructs a program (ErrBadSpec for a latency vector).
func MinBandwidth(files []FileSpec) (int, error) { return core.MinBandwidth(files) }

// BuildConfig describes a broadcast-program construction by name.
type BuildConfig struct {
	// Files are the broadcast file specifications.
	Files []FileSpec
	// Bandwidth is the channel bandwidth in blocks per time unit (at 1,
	// latencies count slots); zero sizes it with Equation 1/2.
	Bandwidth int
	// Schedulers names the ordered scheduler chain to try
	// (SchedulerNames lists the names); nil runs the paper's portfolio.
	// Only the pinwheel construction runs it; every layout checks it.
	Schedulers []string
	// Layout names the construction (LayoutNames lists them). Empty
	// means LayoutPinwheel, the paper's fault-tolerant real-time
	// construction, composed with the Schedulers chain; any other layout
	// owns construction entirely.
	Layout string
}

// Build constructs a broadcast program under the named layout and
// scheduler chain (the paper's fault-tolerant real-time construction by
// the portfolio by default, the one a Station runs). All failures wrap
// the package's typed errors: ErrBadSpec for invalid files, an unknown
// name, or a latency vector under another layout or at bandwidth zero,
// ErrBandwidth when the bandwidth cannot carry the file set,
// ErrInfeasible when scheduling is provably impossible.
func Build(cfg BuildConfig) (*Program, error) {
	chain, err := pinwheel.Named(cfg.Schedulers...)
	if err != nil {
		return nil, fmt.Errorf("%w (registered: %v)", err, SchedulerNames())
	}
	layout := cmp.Or(cfg.Layout, LayoutPinwheel)
	plan, err := layouts.named(layout)
	if err != nil {
		return nil, err
	}
	if layout != LayoutPinwheel || cfg.Bandwidth == 0 {
		// Only the pinwheel layout bounds a latency vector, and Equation 2
		// sizes none.
		if i := slices.IndexFunc(cfg.Files, func(f FileSpec) bool { return f.Latencies != nil }); i >= 0 {
			return nil, fmt.Errorf("pinbcast: file %q has a latency vector, which only the pinwheel layout at a given bandwidth builds: %w",
				cfg.Files[i].Name, ErrBadSpec)
		}
	}
	return plan(cfg.Files, cfg.Bandwidth, chain)
}

// Information dispersal (internal/ida).
type (
	// Block is a self-identifying AIDA block.
	Block = ida.Block
)

// Reconstruct recovers a file from at least Threshold of its blocks.
func Reconstruct(blocks []*Block) ([]byte, error) { return ida.ReconstructFileInto(blocks, nil) }

// FileID returns the stable name-derived broadcast identifier servers
// stamp on a named file's blocks. It is invariant across program
// rebuilds, so clients may keep collecting a file's blocks across
// Admit/Evict generations.
func FileID(name string) uint32 { return server.FileID(name) }

// Pinwheel scheduling (internal/pinwheel).
type (
	// Task is a pinwheel task (a, b): at least a slots of every b, and
	// a + j slots of every Later[j−1] for each of its fault levels.
	Task = pinwheel.Task
	// TaskSystem is a set of pinwheel tasks sharing the channel.
	TaskSystem = pinwheel.System
	// Schedule is a verified cyclic schedule.
	Schedule = pinwheel.Schedule
)

// DensityTestCC is Chan & Chin's sufficient schedulability test
// (density ≤ 7/10).
func DensityTestCC(s TaskSystem) bool { return pinwheel.DensityTestCC(s) }

// Retrieval protocol and channel faults (internal/client,
// internal/channel).
type (
	// Request asks a client to retrieve one file by a deadline.
	Request = client.Request
	// Result records the outcome of one request: completion, latency,
	// deadline verdict, reconstructed data.
	Result = client.Result
	// FaultModel injects channel errors.
	FaultModel = channel.FaultModel
)

// BernoulliFaults returns the paper's independent block-error model.
func BernoulliFaults(p float64, seed int64) FaultModel { return channel.NewBernoulli(p, seed) }

// BurstFaults returns a Gilbert–Elliott bursty loss model.
func BurstFaults(pGoodToBad, pBadToGood, pLossWhileBad float64, seed int64) FaultModel {
	return channel.NewGilbertElliott(pGoodToBad, pBadToGood, pLossWhileBad, seed)
}

// SlotFaults returns the deterministic adversary that corrupts exactly
// the listed absolute slots — the worst-case analyses of §2.3 use it.
func SlotFaults(slots ...int) FaultModel {
	set := make(channel.SlotSet, len(slots))
	for _, t := range slots {
		set[t] = true
	}
	return set
}

// Real-time database layer (internal/rtdb).
type (
	// RTDatabase maps temporally-constrained items to broadcast files.
	RTDatabase = rtdb.Database
	// RTItem is a data item with a temporal-consistency constraint.
	RTItem = rtdb.Item
	// Mode is an operation mode scaling per-item criticality.
	Mode = rtdb.Mode
)
