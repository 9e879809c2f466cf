package pinbcast

import (
	"fmt"
	"time"

	"pinbcast/internal/server"
)

// stationConfig collects the options a Station is built from.
type stationConfig struct {
	files      []FileSpec
	contents   map[string][]byte
	bandwidth  int // 0 = size with Equation 2
	schedulers []Scheduler
	layout     Layout // nil = the pinwheel construction
	interval   time.Duration
	buffer     int

	replicaOnly map[string]bool         // NewCluster's alone: see generation.replicaOnly
	ranges      map[string]server.Range // NewCluster's alone: the share of each replicated file's code (see Cluster)
}

// Option configures a Station under construction. Options are applied
// in order; later options override earlier ones where they overlap.
type Option func(*stationConfig) error

// WithFiles appends broadcast file specifications to the station's
// database. Contents for every named file must be supplied through
// WithContents or WithFile before the station can serve.
func WithFiles(files ...FileSpec) Option {
	return func(c *stationConfig) error {
		c.files = append(c.files, files...)
		return nil
	}
}

// WithFile appends one file specification together with its contents.
// The station keeps the slice, not a copy: do not mutate it afterwards
// (see Station.Admit).
func WithFile(f FileSpec, contents []byte) Option {
	return func(c *stationConfig) error {
		c.files = append(c.files, f)
		c.contents[f.Name] = contents
		return nil
	}
}

// WithContents supplies file contents keyed by file name, merged over
// any contents already configured. The station keeps the slices, not
// copies: do not mutate them afterwards (see Station.Admit).
func WithContents(contents map[string][]byte) Option {
	return func(c *stationConfig) error {
		for name, data := range contents {
			c.contents[name] = data
		}
		return nil
	}
}

// WithBandwidth fixes the channel bandwidth in blocks per time unit.
// Without this option the station sizes bandwidth with the paper's
// Equation 1/2 (at most 43% above the information-theoretic minimum).
func WithBandwidth(b int) Option {
	return func(c *stationConfig) error {
		if b < 0 {
			return fmt.Errorf("pinbcast: negative bandwidth %d: %w", b, ErrBadSpec)
		}
		c.bandwidth = b
		return nil
	}
}

// WithSchedulers selects the schedulers the station tries, in order,
// when constructing broadcast programs. Schedulers need not be
// registered; every schedule is re-verified before use. Without this
// option the station runs the paper's portfolio.
func WithSchedulers(schedulers ...Scheduler) Option {
	return func(c *stationConfig) error {
		c.schedulers = append(c.schedulers, schedulers...)
		return nil
	}
}

// WithLayout selects the broadcast-program construction strategy the
// station (re)builds its programs with — on construction and on every
// Admit, Evict and Negotiate. Without this option (or with the
// registered "pinwheel" layout) the station runs the paper's real-time
// construction, composed with any WithSchedulers chain; any other
// layout owns construction entirely and ignores the scheduler chain.
func WithLayout(l Layout) Option {
	return func(c *stationConfig) error {
		if l == nil {
			return fmt.Errorf("pinbcast: nil layout: %w", ErrBadSpec)
		}
		c.layout = l
		return nil
	}
}

// WithDatabase derives file specifications from a real-time database in
// the given operation mode: each item becomes a broadcast file with its
// temporal-consistency constraint as latency and its mode-dependent
// AIDA redundancy.
func WithDatabase(db *RTDatabase, mode Mode) Option {
	return func(c *stationConfig) error {
		files, err := db.FileSpecs(mode)
		if err != nil {
			return err
		}
		c.files = append(c.files, files...)
		return nil
	}
}

// WithSlotInterval paces the Serve loop to a physical channel rate on
// absolute deadlines: slot k is due k+1 intervals after Serve started
// and is never emitted earlier. A loop that wakes late emits at once
// and catches up back to back, so lateness (pin_station_slot_lateness_us)
// does not accumulate and the long-run rate is exactly nominal. A loop
// over pacerMaxBehind = 64 intervals behind (a stalled consumer, a
// stopped process) does not burst: it restarts the schedule from now and
// increments pin_station_pacer_resyncs_total. Zero (the default) means
// consumer-paced: the loop emits as fast as the receiver drains it.
//
// On a paced channel a slot the program leaves idle is air nobody uses,
// so a paced station sends a further block of a file it already
// broadcasts in all but a few of them (pin_station_reclaimed_slots_total
// counts them), placed evenly and then coalesced into bursts where that
// lowers expected latency. Every scheduled slot still carries the file
// the program names and a file's blocks go out on one rotation, so every
// bound computed from the program still holds: Station.Emission is what
// is served. A consumer-paced stream is left alone: its idle slots are
// free.
func WithSlotInterval(d time.Duration) Option {
	return func(c *stationConfig) error {
		if d < 0 {
			return fmt.Errorf("pinbcast: negative slot interval %v: %w", d, ErrBadSpec)
		}
		c.interval = d
		return nil
	}
}

// WithSlotBuffer sets the capacity of the slot channel Serve returns.
// Zero (the default) makes delivery synchronous.
func WithSlotBuffer(n int) Option {
	return func(c *stationConfig) error {
		if n < 0 {
			return fmt.Errorf("pinbcast: negative slot buffer %d: %w", n, ErrBadSpec)
		}
		c.buffer = n
		return nil
	}
}

// clusterConfig collects the options a Cluster is built from.
type clusterConfig struct {
	files       []FileSpec
	contents    map[string][]byte
	channels    int
	replicas    int // -1 = default min(2, channels)
	hottest     int // -1 = default ⌈len(files)/4⌉
	bandwidth   int // 0 = per-channel Equation-2 sizing
	shard       Shard
	stationOpts []Option
}

// ClusterOption configures a Cluster under construction.
type ClusterOption func(*clusterConfig) error

// WithChannels sets K, the number of broadcast channels the catalog is
// sharded across (default 2).
func WithChannels(k int) ClusterOption {
	return func(c *clusterConfig) error {
		if k < 1 {
			return fmt.Errorf("pinbcast: need at least one channel, got %d: %w", k, ErrBadSpec)
		}
		c.channels = k
		return nil
	}
}

// WithReplicas sets R, the number of channels each replicated file is
// carried on. R ≥ 2 gives the quorum property: any K−R+1 live channels
// still carry every replicated file, so the cluster withstands R−1
// channel deaths without repair. The default is min(2, K).
func WithReplicas(r int) ClusterOption {
	return func(c *clusterConfig) error {
		if r < 1 {
			return fmt.Errorf("pinbcast: need at least one replica, got %d: %w", r, ErrBadSpec)
		}
		c.replicas = r
		return nil
	}
}

// WithReplicateHottest sets how many of the catalog's hottest files (by
// bandwidth share, the access-frequency proxy) are replicated. The
// default replicates the hottest quarter of the catalog.
func WithReplicateHottest(n int) ClusterOption {
	return func(c *clusterConfig) error {
		if n < 0 {
			return fmt.Errorf("pinbcast: negative replication count %d: %w", n, ErrBadSpec)
		}
		c.hottest = n
		return nil
	}
}

// WithShard selects the catalog-partitioning policy by value (default:
// the ShardBalanced policy).
func WithShard(s Shard) ClusterOption {
	return func(c *clusterConfig) error {
		if s == nil {
			return fmt.Errorf("pinbcast: nil shard policy: %w", ErrBadSpec)
		}
		c.shard = s
		return nil
	}
}

// WithShardName selects a registered shard policy by name.
func WithShardName(name string) ClusterOption {
	return func(c *clusterConfig) error {
		s, err := shards.named(name)
		c.shard = s
		return err
	}
}

// WithClusterFiles appends broadcast file specifications to the cluster
// catalog; supply contents through WithClusterContents.
func WithClusterFiles(files ...FileSpec) ClusterOption {
	return func(c *clusterConfig) error {
		c.files = append(c.files, files...)
		return nil
	}
}

// WithClusterContents supplies catalog file contents keyed by name,
// merged over any contents already configured.
func WithClusterContents(contents map[string][]byte) ClusterOption {
	return func(c *clusterConfig) error {
		for name, data := range contents {
			c.contents[name] = data
		}
		return nil
	}
}

// WithClusterBandwidth fixes every channel's bandwidth in blocks per
// time unit instead of the default per-channel Equation-2 sizing.
// Over-provisioning (e.g. the Equation-2 bandwidth of the whole
// catalog) leaves the headroom FailChannel needs to re-admit a dead
// channel's files onto the survivors.
func WithClusterBandwidth(b int) ClusterOption {
	return func(c *clusterConfig) error {
		if b < 0 {
			return fmt.Errorf("pinbcast: negative bandwidth %d: %w", b, ErrBadSpec)
		}
		c.bandwidth = b
		return nil
	}
}

// WithStationOptions appends Station options applied to every channel's
// station — pacing (WithSlotInterval), buffering (WithSlotBuffer),
// scheduler chains (WithSchedulers) and layouts (WithLayout) compose
// with the cluster plan.
func WithStationOptions(opts ...Option) ClusterOption {
	return func(c *clusterConfig) error {
		c.stationOpts = append(c.stationOpts, opts...)
		return nil
	}
}
