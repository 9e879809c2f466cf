package pinbcast

import (
	"math/rand"
	"time"

	"pinbcast/internal/algebra"
	"pinbcast/internal/cache"
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

// FlatSequential builds the naive back-to-back flat baseline program.
func FlatSequential(files []FileSpec) (*Program, error) { return core.FlatSequential(files) }

// Information dispersal (internal/ida).
type (
	// Block is a self-identifying AIDA block.
	Block = ida.Block
)

// DispersalConfig describes one file dispersal.
type DispersalConfig struct {
	// FileID is the identifier stamped on every block; use FileID(name)
	// for the stable name-derived identifier broadcast servers use.
	FileID uint32
	// Data is the file contents.
	Data []byte
	// Threshold is m: any Threshold blocks reconstruct the file.
	Threshold int
	// Width is n: the number of distinct blocks produced.
	Width int
}

// DisperseData splits data into Width self-identifying blocks of which
// any Threshold reconstruct it (Rabin's IDA over GF(2⁸)).
func DisperseData(cfg DispersalConfig) ([]*Block, error) {
	return ida.DisperseFile(cfg.FileID, cfg.Data, cfg.Threshold, cfg.Width)
}

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

// SchedulePinwheel runs the scheduler portfolio on a pinwheel system.
func SchedulePinwheel(s TaskSystem) (*Schedule, error) { return pinwheel.Solve(s, nil) }

// DensityTestCC is Chan & Chin's sufficient schedulability test
// (density ≤ 7/10).
func DensityTestCC(s TaskSystem) bool { return pinwheel.DensityTestCC(s) }

// Pinwheel algebra (internal/algebra).
type (
	// BroadcastCondition is bc(i, m, d⃗) from §4.
	BroadcastCondition = algebra.BC
	// NiceConjunct is a nice conjunct of pinwheel conditions.
	NiceConjunct = algebra.NiceConjunct
)

// ConvertCondition searches for a minimum-density nice conjunct
// implying the broadcast condition, certified by the forcing engine.
func ConvertCondition(b BroadcastCondition) (NiceConjunct, error) { return algebra.Convert(b) }

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

// Client cache management (internal/cache): replacement policies for a
// Receiver's reconstructed-file cache (WithCache), after Acharya,
// Franklin & Zdonik's broadcast-disk cache study cited in §1.
type (
	// CachePolicy chooses replacement victims for a receiver cache.
	CachePolicy = cache.Policy
)

// LRUPolicy returns a least-recently-used replacement policy.
func LRUPolicy() CachePolicy { return cache.NewLRU() }

// LFUPolicy returns a least-frequently-used replacement policy.
func LFUPolicy() CachePolicy { return cache.NewLFU() }

// PIXPolicy returns Acharya et al.'s P-inverse-X policy: evict the item
// with the lowest ratio of access probability to broadcast frequency —
// an item broadcast often is cheap to lose even when popular. Get the
// frequency map from BroadcastFrequencies.
func PIXPolicy(frequency map[string]float64) CachePolicy { return cache.NewPIX(frequency) }

// RandomPolicy returns the random-replacement baseline, drawing victims
// from the injected generator (nil for a fixed default seed).
func RandomPolicy(rng *rand.Rand) CachePolicy { return cache.NewRandom(rng) }

// BroadcastFrequencies returns each file's slots per period in the
// program — the x of the PIX policy.
func BroadcastFrequencies(p *Program) map[string]float64 { return cache.BroadcastFrequencies(p) }

// NoFaults returns the fault-free channel.
func NoFaults() FaultModel { return channel.None{} }

// BernoulliFaults returns the paper's independent block-error model.
func BernoulliFaults(p float64, seed int64) FaultModel { return channel.NewBernoulli(p, seed) }

// BernoulliFaultsFrom is BernoulliFaults drawing from an injected
// generator (nil for a fixed default seed), so a simulation can share
// one reproducible random stream across its fault models, cache
// policies (RandomPolicy) and workload generators.
func BernoulliFaultsFrom(p float64, rng *rand.Rand) FaultModel {
	return channel.NewBernoulliFrom(p, rng)
}

// BurstFaults returns a Gilbert–Elliott bursty loss model.
func BurstFaults(pGoodToBad, pBadToGood, pLossWhileBad float64, seed int64) FaultModel {
	return channel.NewGilbertElliott(pGoodToBad, pBadToGood, pLossWhileBad, seed)
}

// BurstFaultsFrom is BurstFaults drawing from an injected generator
// (nil for a fixed default seed). Like every fault model it plugs into
// the whole fault seam: WithReceiverFaults on a Receiver,
// WithTunerFaults on a MultiTuner (one model and one generator per
// channel: they are driven concurrently), SimConfig on a simulation.
func BurstFaultsFrom(pGoodToBad, pBadToGood, pLossWhileBad float64, rng *rand.Rand) FaultModel {
	return channel.NewGilbertElliottFrom(pGoodToBad, pBadToGood, pLossWhileBad, rng)
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

// NewRTDatabase returns a database with the given latency unit.
func NewRTDatabase(unit time.Duration, items ...RTItem) *RTDatabase {
	return &RTDatabase{Unit: unit, Items: items}
}

// Admit applies density-based admission control: candidate joins the
// admitted set at bandwidth b only if every guarantee is preserved.
// Rejections wrap ErrAdmission. For a running broadcast, use
// Station.Admit, which also rebuilds and swaps the program.
func Admit(admitted []FileSpec, candidate FileSpec, b int) ([]FileSpec, error) {
	return rtdb.Admit(admitted, candidate, b)
}
