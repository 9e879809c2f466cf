package pinbcast

import (
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
	// Blocks (m), Latency (T), Faults (r) and an optional AIDA
	// DispersalWidth.
	FileSpec = core.FileSpec
	// GenFileSpec describes a generalized file with a per-fault-level
	// latency vector (§4).
	GenFileSpec = core.GenFileSpec
	// Program is a cyclic broadcast program with AIDA block rotation.
	Program = core.Program
	// GeneralizedResult carries a generalized construction's program,
	// conjunct and scheduler system.
	GeneralizedResult = core.GeneralizedResult
)

// Idle marks an unallocated slot in programs and schedules.
const Idle = core.Idle

// NecessaryBandwidth returns Σ (mᵢ+rᵢ)/Tᵢ, the bandwidth lower bound.
func NecessaryBandwidth(files []FileSpec) float64 { return core.NecessaryBandwidth(files) }

// SufficientBandwidth returns the paper's Equation 1/2 bandwidth
// ⌈10/7 · Σ (mᵢ+rᵢ)/Tᵢ⌉, sufficient for schedulability.
func SufficientBandwidth(files []FileSpec) int { return core.SufficientBandwidth(files) }

// MinBandwidth returns the smallest bandwidth at which the scheduler
// portfolio constructs a program.
func MinBandwidth(files []FileSpec) (int, error) { return core.MinBandwidth(files) }

// BuildConfig describes a broadcast-program construction.
type BuildConfig struct {
	// Files are the broadcast file specifications.
	Files []FileSpec
	// Bandwidth is the channel bandwidth in blocks per time unit; zero
	// sizes it with Equation 1/2.
	Bandwidth int
	// Schedulers is the ordered scheduler chain to try; nil runs the
	// paper's portfolio. Only the pinwheel construction consults it.
	Schedulers []Scheduler
	// Layout selects the construction strategy (see the Layout
	// registry). Nil — or the registered "pinwheel" layout — runs the
	// paper's fault-tolerant real-time construction, composed with the
	// Schedulers chain; any other layout owns construction entirely.
	Layout Layout
}

// Build constructs a broadcast program under the configured layout
// strategy (the paper's fault-tolerant real-time construction by
// default). All failures wrap the package's typed errors: ErrBadSpec
// for invalid files, ErrBandwidth when the bandwidth cannot carry the
// file set, ErrInfeasible when scheduling is provably impossible.
func Build(cfg BuildConfig) (*Program, error) {
	return buildProgram(cfg.Files, cfg.Bandwidth, cfg.Layout, cfg.Schedulers)
}

// buildProgram is the one construction path behind Build and every
// Station generation. The pinwheel construction — the default, and the
// registered "pinwheel" layout when selected by name — composes with
// the scheduler chain; any other layout owns construction entirely.
func buildProgram(files []FileSpec, bw int, layout Layout, chain []Scheduler) (*Program, error) {
	if !isBuiltinPinwheel(layout) {
		return layout.Plan(files, bw)
	}
	if bw == 0 {
		// Invalid files yield a meaningless sizing here, but
		// BuildProgramWith validates them before using the bandwidth.
		bw = core.SufficientBandwidth(files)
	}
	return core.BuildProgramWith(files, bw, func(sys pinwheel.System) (*pinwheel.Schedule, error) {
		return solveChain(sys, chain)
	})
}

// BuildGeneralizedProgram constructs a program for files with
// per-fault-level latency vectors via the pinwheel algebra.
func BuildGeneralizedProgram(files []GenFileSpec) (*GeneralizedResult, error) {
	return core.BuildGeneralizedProgram(files)
}

// FlatSpread builds the uniformly-interleaved flat baseline program
// (Figures 5–6).
func FlatSpread(files []FileSpec) (*Program, error) { return core.FlatSpread(files) }

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
	// Task is a pinwheel task (a, b): at least a slots of every b.
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
