package pinbcast

import (
	"fmt"
	"maps"
	"time"

	"pinbcast/internal/server"
)

// stationConfig collects the options a Station is built from.
type stationConfig struct {
	files     []FileSpec
	contents  map[string][]byte
	bandwidth int // 0 = size with Equation 2
	interval  time.Duration
	buffer    int

	replicaOnly map[string]bool         // NewCluster's alone: see generation.replicaOnly
	ranges      map[string]server.Range // NewCluster's alone: the share of each replicated file's code (see Cluster)
}

// Option configures a Station under construction. Options are applied
// in order; later options override earlier ones where they overlap.
// Every Option also configures a Cluster (see ClusterOption).
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
		maps.Copy(c.contents, contents)
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

// WithDatabase derives file specifications from a real-time database in
// the given operation mode: each item becomes a broadcast file with its
// temporal-consistency constraint as latency and its mode-dependent
// AIDA redundancy.
func WithDatabase(db *RTDatabase, mode Mode) Option {
	return func(c *stationConfig) error {
		if db == nil {
			return fmt.Errorf("pinbcast: nil database: %w", ErrBadSpec)
		}
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
	stationConfig // the catalogue, and what every channel's station shares
	channels      int
	replicas      int    // -1 = default min(2, channels)
	hottest       int    // -1 = default ⌈len(files)/4⌉
	shard         string // a key of shards
}

// ClusterOption configures a Cluster under construction. Every Option
// is one: WithFiles, WithFile, WithContents and WithDatabase make up the
// catalogue the cluster shards, and WithBandwidth, WithSlotInterval and
// WithSlotBuffer apply to every channel's station (a fixed bandwidth
// instead of the per-channel Equation-2 sizing: over-provisioning, e.g.
// the Equation-2 bandwidth of the whole catalogue, leaves the headroom
// FailChannel needs to re-admit a dead channel's files onto the
// survivors). WithChannels, WithReplicas, WithReplicateHottest and
// WithShardName configure a Cluster alone.
type ClusterOption interface {
	applyCluster(*clusterConfig) error
}

func (o Option) applyCluster(c *clusterConfig) error { return o(&c.stationConfig) }

// clusterOption is a ClusterOption alone.
type clusterOption func(*clusterConfig) error

func (o clusterOption) applyCluster(c *clusterConfig) error { return o(c) }

// WithChannels sets K, the number of broadcast channels the catalog is
// sharded across (default 2).
func WithChannels(k int) ClusterOption {
	return clusterOption(func(c *clusterConfig) error {
		if k < 1 {
			return fmt.Errorf("pinbcast: need at least one channel, got %d: %w", k, ErrBadSpec)
		}
		c.channels = k
		return nil
	})
}

// WithReplicas sets R, the number of channels each replicated file is
// carried on. R ≥ 2 gives the quorum property: any K−R+1 live channels
// still carry every replicated file, so the cluster withstands R−1
// channel deaths without repair. The default is min(2, K).
func WithReplicas(r int) ClusterOption {
	return clusterOption(func(c *clusterConfig) error {
		if r < 1 {
			return fmt.Errorf("pinbcast: need at least one replica, got %d: %w", r, ErrBadSpec)
		}
		c.replicas = r
		return nil
	})
}

// WithReplicateHottest sets how many of the catalog's hottest files (by
// bandwidth share, the access-frequency proxy) are replicated. The
// default replicates the hottest quarter of the catalog.
func WithReplicateHottest(n int) ClusterOption {
	return clusterOption(func(c *clusterConfig) error {
		if n < 0 {
			return fmt.Errorf("pinbcast: negative replication count %d: %w", n, ErrBadSpec)
		}
		c.hottest = n
		return nil
	})
}

// WithShardName selects a shard policy by name (ShardNames lists them;
// the default is ShardBalanced). An unknown name wraps ErrBadSpec.
func WithShardName(name string) ClusterOption {
	return clusterOption(func(c *clusterConfig) error {
		_, err := shards.named(name)
		c.shard = name
		return err
	})
}
