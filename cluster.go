package pinbcast

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"pinbcast/internal/cluster"
	"pinbcast/internal/core"
	"pinbcast/internal/obs"
	"pinbcast/internal/rtdb"
	"pinbcast/internal/server"
)

// Built-in shard policy names. A shard policy maps each file of a
// catalog to a primary broadcast channel in [0, K); WithShardName
// selects one.
const (
	// ShardHash is the stateless policy: FNV-32a of the file name modulo
	// K, so a file's home is computable from its name alone.
	ShardHash = "hash"
	// ShardHotCold is the frequency-tiered policy (after
	// Acharya–Franklin–Zdonik): the hotter half of the catalog (by
	// bandwidth share, the access-frequency proxy) is spread over the
	// first ⌈K/2⌉ channels, the cold half over the rest.
	ShardHotCold = "hot-cold"
	// ShardBalanced is the latency-balancing policy: files are placed
	// hottest-first on the channel with the least accumulated bandwidth
	// demand, which keeps per-channel Equation-2 bandwidths — and with
	// them the per-channel latency profiles — as even as the catalog
	// allows.
	ShardBalanced = "balanced"
)

var shards = registry[cluster.Shard]{"shard policy", map[string]cluster.Shard{
	ShardHash: cluster.HashShard, ShardHotCold: cluster.HotColdShard, ShardBalanced: cluster.BalancedShard}}

// ShardNames returns the names of all registered shard policies,
// sorted.
func ShardNames() []string { return shards.names() }

// Cluster is a sharded multi-channel broadcast deployment: a
// coordinator that partitions one catalog across K Stations (one
// broadcast channel each) under a shard policy chosen by name, replicates
// the hottest files on R ≥ 2 channels (quorum-style: any K−R+1 live
// channels still carry every replicated file, so the cluster withstands
// R−1 channel deaths without repair), and keeps cluster-wide QoS:
// Negotiate composes per-channel Contracts into a ClusterContract, and
// FailChannel re-admits a dead channel's un-replicated files onto the
// survivors at their next data-cycle boundaries, re-verifying every
// issued contract and revoking (ErrDegraded) the ones it can no longer
// honor.
//
// A replica is more blocks, not the same blocks again. A file planned on
// R channels is dispersed once, R times as wide as its rotation (R·N
// blocks, at most 256), and its j-th home rotates through blocks
// [j·N, (j+1)·N) of that one code: the first home sends what a lone
// station would, the others parity only, each block under its own number
// (Slot.Seq, Block.Seq). Every home alone still sends N distinct blocks
// any m of which rebuild the file, so every per-channel window, Contract
// and ClusterContract bound holds as computed for that channel, while a
// listener of several homes never hears a block twice and may pool what
// they send (MultiTuner does) — a gain promised to nobody. The width is
// fixed when the cluster is planned; a file FailChannel re-admits keeps
// it and takes the lowest range no live home holds.
//
// The receiving counterpart is the MultiTuner, which subscribes to all
// channels concurrently, retrieves each request from the cheapest live
// channel, and hops channels on failure.
//
// A Cluster is safe for concurrent use.
type Cluster struct {
	shard    string
	replicas int

	stations []*Station

	mu        sync.Mutex
	homes     map[string][]int                 // file -> carrying channels, primary first; guarded by mu
	dead      map[int]bool                     // guarded by mu
	stops     []context.CancelFunc             // per-channel broadcast stops (while serving); guarded by mu
	contracts map[string]*clusterContractEntry // guarded by mu
	lost      map[string]error                 // files no survivor could carry, wrapping ErrDegraded; guarded by mu
}

// clusterContractEntry pairs an issued cluster contract with the
// obligation the coordinator re-verifies after channel failures.
type clusterContractEntry struct {
	txn     Txn
	c       ClusterContract
	revoked error
}

// ClusterContract is a cluster-wide QoS guarantee composed from
// per-channel Contracts: each read file is served by its best replica,
// and replication keeps the promise meaningful through channel deaths.
type ClusterContract struct {
	// Name identifies the guaranteed transaction.
	Name string
	// WorstLatencySlots is the nominal bound: every read retrieved from
	// its best (lowest-bound) replica channel, the binding read's bound
	// taken across the read set.
	WorstLatencySlots int
	// DegradedLatencySlots bounds retrieval with channels down: each
	// read served by its worst surviving replica. For reads replicated
	// on R channels the bound holds through any R−1 channel deaths; for
	// un-replicated reads it equals the nominal bound and survives only
	// re-admission that stays within it.
	DegradedLatencySlots int
	// PerChannel holds the Contracts registered on every live station
	// carrying part of the read set, keyed by channel index. Each
	// station enforces its own replica's bound against its later
	// Admit/Evict/Negotiate calls, exactly like directly issued Station
	// contracts — the degraded promise is only as strong as the worst
	// replica, so every replica is defended. FailChannel refreshes the
	// registrations of contracts it keeps.
	PerChannel map[int]Contract
}

// NewCluster plans and builds a sharded broadcast cluster from
// functional options: the catalogue and the channels' settings are
// Station options (see ClusterOption), the plan is WithChannels and its
// siblings. The shard policy defaults to ShardBalanced, replication to
// min(2, K) copies of the hottest ¼ of the catalog.
//
//	c, err := pinbcast.NewCluster(
//		pinbcast.WithChannels(3),
//		pinbcast.WithReplicas(2),
//		pinbcast.WithFiles(files...),
//		pinbcast.WithContents(contents),
//	)
func NewCluster(opts ...ClusterOption) (*Cluster, error) {
	cfg := &clusterConfig{stationConfig: stationConfig{contents: map[string][]byte{}},
		channels: 2, replicas: -1, hottest: -1, shard: ShardBalanced}
	for _, opt := range opts {
		if err := opt.applyCluster(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.replicas < 0 {
		cfg.replicas = min(2, cfg.channels)
	}
	if cfg.hottest < 0 {
		cfg.hottest = (len(cfg.files) + 3) / 4
	}
	if err := core.ValidateAll(cfg.files); err != nil {
		return nil, err
	}
	asn, err := cluster.Plan(cfg.files, cfg.channels, cfg.replicas, cfg.hottest, shards.byName[cfg.shard])
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		shard:     cfg.shard,
		replicas:  cfg.replicas,
		homes:     asn.Homes,
		dead:      map[int]bool{},
		contracts: map[string]*clusterContractEntry{},
		lost:      map[string]error{},
	}
	for _, f := range cfg.files {
		if _, ok := cfg.contents[f.Name]; !ok {
			return nil, fmt.Errorf("pinbcast: no contents for file %q: %w", f.Name, ErrBadSpec)
		}
		if w := len(asn.Homes[f.Name]); w*f.Width() > 256 {
			return nil, fmt.Errorf("pinbcast: file %q on %d channels needs a code %d blocks wide, more than 256: %w",
				f.Name, w, w*f.Width(), ErrBadSpec)
		}
	}
	c.stations = make([]*Station, len(asn.Channels))
	replicaOnly := c.replicaOnlyLocked()
	for ch, chFiles := range asn.Channels {
		sc := cfg.stationConfig
		sc.files, sc.replicaOnly = chFiles, replicaOnly[ch]
		sc.contents, sc.ranges = make(map[string][]byte, len(chFiles)), map[string]server.Range{}
		for _, f := range chFiles {
			sc.contents[f.Name] = cfg.contents[f.Name]
			if homes := asn.Homes[f.Name]; len(homes) > 1 {
				sc.ranges[f.Name] = server.Range{Index: slices.Index(homes, ch), Of: len(homes)}
			}
		}
		st, err := newStation(&sc)
		if err != nil {
			return nil, fmt.Errorf("pinbcast: building channel %d: %w", ch, err)
		}
		c.stations[ch] = st
	}
	c.stops = make([]context.CancelFunc, len(c.stations))
	for i := range c.stations {
		clChannelUp(i).Set(1)
	}
	c.updateGaugesLocked()
	return c, nil
}

// updateGaugesLocked refreshes the cluster-plane gauges after any
// membership or contract mutation: the remaining fault budget (channel
// deaths the replication degree can still absorb) and the smallest
// latency slack over in-force contracts. Caller holds mu, except the
// constructor, whose cluster is not yet shared.
//
//pinlint:holds mu
func (c *Cluster) updateGaugesLocked() {
	budget := int64(c.replicas) - 1 - int64(len(c.dead))
	if budget < 0 {
		budget = 0
	}
	clFaultBudget.Set(budget)
	headroom := int64(0)
	first := true
	for _, e := range c.contracts {
		if e.revoked != nil {
			continue
		}
		slack := int64(e.c.DegradedLatencySlots - e.c.WorstLatencySlots)
		if first || slack < headroom {
			headroom, first = slack, false
		}
	}
	clHeadroom.Set(headroom)
}

// Channels returns K, the number of broadcast channels.
func (c *Cluster) Channels() int { return len(c.stations) }

// Replicas returns R, the replication factor of the hottest files.
func (c *Cluster) Replicas() int { return c.replicas }

// ShardPolicy returns the name of the shard policy the cluster was
// planned with.
func (c *Cluster) ShardPolicy() string { return c.shard }

// Station returns the station serving channel i — the per-channel
// service handle (its Program, Directory, QoS surface). The station
// object outlives a FailChannel of its channel, but its broadcast does
// not.
func (c *Cluster) Station(i int) *Station {
	if i < 0 || i >= len(c.stations) {
		return nil
	}
	return c.stations[i]
}

func (c *Cluster) liveLocked() []int {
	var out []int
	for i := range c.stations {
		if !c.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// Assignment returns the live channels carrying each file, primary
// first — the deployment map a MultiTuner ranks its fetches with. The
// map is a fresh copy reflecting failovers applied so far: dead
// channels are dropped, re-admitted homes appear, and files lost to
// failures have no entry (see Lost).
func (c *Cluster) Assignment() map[string][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]int, len(c.homes))
	for name := range c.homes {
		if live := c.liveHomesLocked(name); len(live) > 0 {
			out[name] = live
		}
	}
	return out
}

// Directory returns the merged id→name directory over every channel —
// what a MultiTuner needs to resolve any file of the catalog on any
// channel (identifiers are name-derived, so replicas agree).
func (c *Cluster) Directory() map[uint32]string {
	out := map[uint32]string{}
	for _, st := range c.stations {
		maps.Copy(out, st.Directory())
	}
	return out
}

// liveHomesLocked returns the live channels carrying the file, primary
// first. Caller holds mu.
func (c *Cluster) liveHomesLocked(name string) []int {
	var out []int
	for _, ch := range c.homes[name] {
		if !c.dead[ch] {
			out = append(out, ch)
		}
	}
	return out
}

// replicaOnlyLocked returns, per channel, the files it carries behind an
// earlier live home. A replica is there to survive channel deaths, which
// its scheduled slots already do: a file's spare air is planned once, on
// its first live home, and a replica channel spends its own on the files
// only it carries (change.replicaOnly). Caller holds mu, except the
// constructor.
//
//pinlint:holds mu
func (c *Cluster) replicaOnlyLocked() []map[string]bool {
	sets := make([]map[string]bool, len(c.stations))
	for ch := range sets {
		sets[ch] = map[string]bool{}
	}
	for name := range c.homes {
		if live := c.liveHomesLocked(name); len(live) > 1 {
			for _, ch := range live[1:] {
				sets[ch][name] = true
			}
		}
	}
	return sets
}

// FetchPlan returns, for each carried file, the live channels to fetch
// it from, cheapest first (ascending per-channel worst-case retrieval
// bound). It is the cost model behind MultiTuner's
// cheapest-live-channel policy; pass it through WithTunerHomes.
func (c *Cluster) FetchPlan() map[string][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]int, len(c.homes))
	for name := range c.homes {
		if live := c.liveHomesLocked(name); len(live) > 0 {
			out[name], _, _ = c.rankHomes(name, live)
		}
	}
	return out
}

// rankHomes orders the live homes of a file by the bound each one's
// station contracts for the file alone (Station.fileBound), cheapest
// first, ties kept in the order given. It is FetchPlan's order; a
// cluster contract's nominal bound is the first entry and its degraded
// bound the last, and re-verification reads the first. A home whose
// station cannot bound the file ranks last at 1<<30; err is the first
// such failure.
func (c *Cluster) rankHomes(file string, live []int) (homes, bounds []int, err error) {
	homes, bounds = make([]int, len(live)), make([]int, len(live))
	for i, ch := range live {
		b, e := c.stations[ch].fileBound(file)
		if e != nil {
			b, err = 1<<30, cmp.Or(err, e)
		}
		j := i
		for ; j > 0 && bounds[j-1] > b; j-- {
			homes[j], bounds[j] = homes[j-1], bounds[j-1]
		}
		homes[j], bounds[j] = ch, b
	}
	return homes, bounds, err
}

// Serve starts every live channel's broadcast loop and returns one slot
// stream per channel (nil for already-failed channels). Each loop runs
// until ctx is cancelled or its channel is failed; a partial startup
// failure stops the already-started loops before returning. The
// liveness check and the stop registration happen under one lock, so a
// concurrent FailChannel either sees the loop (and stops it) or
// prevents it from starting.
func (c *Cluster) Serve(ctx context.Context) ([]<-chan Slot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	outs := make([]<-chan Slot, len(c.stations))
	var started []context.CancelFunc
	for i, st := range c.stations {
		if c.dead[i] {
			continue
		}
		cctx, cancel := context.WithCancel(ctx)
		slots, err := st.Serve(cctx)
		if err != nil {
			cancel()
			for _, stop := range started {
				stop()
			}
			for j := range outs {
				if outs[j] != nil {
					for range outs[j] { //pinlint:allow cancelflow — every started serve was cancelled above; the drain ends when serveLoop closes its channel
					}
				}
				c.stops[j] = nil
			}
			return nil, fmt.Errorf("pinbcast: serving channel %d: %w", i, err)
		}
		outs[i] = slots
		started = append(started, cancel)
		c.stops[i] = cancel
	}
	return outs, nil
}

// fileBound returns the worst-case single-file retrieval bound the
// station can contract for the named file on its latest generation.
func (st *Station) fileBound(name string) (int, error) {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	return st.contractBound(st.latest.Load().files, Txn{Name: name, Reads: []string{name}, Deadline: 1 << 30})
}

// Negotiate admits a cluster-wide read transaction: every read file
// must be carried by a live channel, the composed best-replica bound
// must fit the deadline, and the read set is registered as a Contract
// on every live station carrying part of it (each from then on
// enforces its replica's bound against that channel's own changes).
// The returned ClusterContract
// carries the nominal bound and the degraded bound that replication
// sustains through R−1 channel deaths. Rejections wrap ErrBadSpec
// (malformed or unknown), ErrAdmission (deadline unmeetable) or
// ErrDegraded (a read already lost) and leave every channel untouched.
func (c *Cluster) Negotiate(x Txn) (ClusterContract, error) {
	if err := x.Validate(); err != nil {
		return ClusterContract{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, dup := c.contracts[x.Name]; dup && e.revoked == nil {
		return ClusterContract{}, fmt.Errorf("pinbcast: cluster contract %q already issued: %w", x.Name, ErrBadSpec)
	}

	nominal, degraded := 0, 0
	for _, read := range x.Reads {
		if _, known := c.homes[read]; !known {
			return ClusterContract{}, fmt.Errorf("pinbcast: file %q not in cluster catalog: %w", read, ErrBadSpec)
		}
		if lostErr, lost := c.lost[read]; lost {
			return ClusterContract{}, fmt.Errorf("pinbcast: read %q: %w", read, lostErr)
		}
		live := c.liveHomesLocked(read)
		if len(live) == 0 {
			return ClusterContract{}, fmt.Errorf("pinbcast: file %q has no live channel: %w", read, ErrDegraded)
		}
		_, bounds, err := c.rankHomes(read, live)
		if err != nil {
			return ClusterContract{}, err
		}
		nominal, degraded = max(nominal, bounds[0]), max(degraded, bounds[len(bounds)-1])
	}
	if nominal > x.Deadline {
		return ClusterContract{}, fmt.Errorf(
			"pinbcast: transaction %q best-replica worst case is %d slots, deadline %d: %w",
			x.Name, nominal, x.Deadline, ErrAdmission)
	}

	// Register the contract on every live carrier of the read set —
	// not just each read's best replica — so every station holds its
	// own replica's bound invariant against its later Admit, Evict and
	// Negotiate calls; the DegradedLatencySlots promise is only as good
	// as the worst replica, so the worst replica must be defended too.
	// Rolls back on any failure so a rejected negotiation changes
	// nothing.
	groups, regDeadline := c.registrationPlanLocked(x, degraded)
	perChannel := make(map[int]Contract, len(groups))
	issued := make([]int, 0, len(groups))
	for ch, reads := range groups {
		ct, err := c.stations[ch].AdmitTxn(Txn{Name: x.Name, Reads: reads, Deadline: regDeadline})
		if err != nil {
			for _, prev := range issued {
				c.stations[prev].ReleaseTxn(x.Name)
			}
			return ClusterContract{}, fmt.Errorf("pinbcast: channel %d group: %w", ch, err)
		}
		perChannel[ch] = ct
		issued = append(issued, ch)
	}

	cc := ClusterContract{
		Name:                 x.Name,
		WorstLatencySlots:    nominal,
		DegradedLatencySlots: degraded,
		PerChannel:           perChannel,
	}
	c.contracts[x.Name] = &clusterContractEntry{txn: x, c: cc}
	c.updateGaugesLocked()
	return cc, nil
}

// Contract returns the named cluster contract. A revoked contract is
// returned with its revocation error (wrapping ErrDegraded); an unknown
// name wraps ErrBadSpec.
func (c *Cluster) Contract(name string) (ClusterContract, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.contracts[name]
	if !ok {
		return ClusterContract{}, fmt.Errorf("pinbcast: no cluster contract %q: %w", name, ErrBadSpec)
	}
	return e.c, e.revoked
}

// Contracts returns every cluster contract still in force, sorted by
// name. Revoked contracts are excluded; fetch them by name with
// Contract to see the revocation reason.
func (c *Cluster) Contracts() []ClusterContract {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ClusterContract, 0, len(c.contracts))
	for _, e := range c.contracts {
		if e.revoked == nil {
			out = append(out, e.c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Release withdraws a cluster contract and its per-channel
// registrations. Releasing an unknown contract wraps ErrBadSpec.
func (c *Cluster) Release(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.contracts[name]
	if !ok {
		return fmt.Errorf("pinbcast: no cluster contract %q: %w", name, ErrBadSpec)
	}
	for ch := range e.c.PerChannel {
		if !c.dead[ch] {
			c.stations[ch].ReleaseTxn(name)
		}
	}
	delete(c.contracts, name)
	c.updateGaugesLocked()
	return nil
}

// FailoverReport records what one FailChannel did.
type FailoverReport struct {
	// Channel is the failed channel.
	Channel int
	// Readmitted maps each orphaned file (carried only by the failed
	// channel) to the surviving channel that admitted it; the file goes
	// on air at that channel's next data-cycle boundary.
	Readmitted map[string]int
	// Lost maps each orphaned file no survivor could admit to the reason
	// (wrapping ErrDegraded), nil when there is none; its reads are gone
	// and their contracts revoked.
	Lost map[string]error
	// Revoked lists cluster contracts revoked by this failover.
	Revoked []string
	// Kept lists cluster contracts re-verified and still in force.
	Kept []string
}

// FailChannel takes channel i out of the cluster: its broadcast loop is
// stopped (if the cluster is serving), the files it alone carried are
// re-admitted on the survivors, and every cluster contract is
// re-verified. The orphans are the catalogue files that channel i's
// latest generation carries and no live channel does, each re-admitted
// with that generation's spec, contents and code width: a file evicted
// from channel i is not one, nor is a file admitted there outside the
// catalogue. A contract whose re-computed bound still fits its promised
// DegradedLatencySlots is kept, any other revoked with an error wrapping
// ErrDegraded. The orphans are planned hottest first, each on the
// survivor with the most bandwidth headroom over its latest file set
// (staged changes count) and what is planned for it, among those whose
// density gate, Admit's, admits it. Each survivor then builds at most
// one generation, live at its next data-cycle boundary: its orphans,
// frames carried over from channel i's, and on a paced station the
// spare air of files channel i was first to carry. A survivor whose
// build is refused all the same (a contract, a system the portfolio
// cannot schedule) takes none of its orphans: they are planned again
// over the others, which build again to take them, and lost when none
// admits them. Failing an unknown or already-failed channel wraps
// ErrBadSpec; failing the last live channel loses the catalog.
func (c *Cluster) FailChannel(i int) (*FailoverReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.stations) {
		return nil, fmt.Errorf("pinbcast: no channel %d: %w", i, ErrBadSpec)
	}
	if c.dead[i] {
		return nil, fmt.Errorf("pinbcast: channel %d already failed: %w", i, ErrBadSpec)
	}
	c.dead[i] = true
	if stop := c.stops[i]; stop != nil {
		stop()
		c.stops[i] = nil
	}
	clChannelUp(i).Set(0)
	clFailovers.Inc()
	rep := &FailoverReport{Channel: i, Readmitted: map[string]int{}}

	// Orphans: the catalogue files on channel i whose every carrier is
	// now dead.
	var orphans []FileSpec
	last := c.stations[i].latest.Load()
	for _, f := range last.files {
		if _, known := c.homes[f.Name]; known && c.lost[f.Name] == nil && len(c.liveHomesLocked(f.Name)) == 0 {
			orphans = append(orphans, f)
		}
	}
	replicaOnly, failed := c.replicaOnlyLocked(), []*server.Server{last.srv}
	survivors := c.liveLocked()
	for round := 0; round == 0 || len(orphans) > 0; round++ {
		batches := c.planLocked(orphans, survivors, i, rep)
		orphans = nil
		for _, ch := range slices.Clone(survivors) {
			if round > 0 && len(batches[ch]) == 0 {
				continue
			}
			st, chg := c.stations[ch], change{add: batches[ch], contents: map[string][]byte{}, ranges: map[string]server.Range{},
				replicaOnly: replicaOnly[ch], carry: failed}
			for _, f := range chg.add {
				// Channel i carried every orphan; none has a live home, so
				// range 0 of its code, as wide as channel i sent it, is free.
				data, rng, _ := failed[0].Source(f.Name)
				chg.contents[f.Name], chg.ranges[f.Name] = data, server.Range{Index: 0, Of: rng.Of}
			}
			// The spare-air change alone is best effort: an emission not
			// planned anew still holds every bound.
			st.buildMu.Lock()
			refused := st.rebuild(chg) != nil && len(chg.add) > 0
			if refused {
				chg.add = nil
				_ = st.rebuild(chg)
			}
			st.buildMu.Unlock()
			if refused {
				survivors = slices.DeleteFunc(survivors, func(s int) bool { return s == ch })
				orphans = append(orphans, batches[ch]...)
				continue
			}
			for _, f := range batches[ch] {
				c.homes[f.Name] = append(c.homes[f.Name], ch)
				rep.Readmitted[f.Name] = ch
				clReadmitted.Inc()
				traceRing.Emit(obs.FailoverReadmit, ch, FileID(f.Name), 0, 0, uint64(i))
			}
		}
	}

	// Re-verify every in-force cluster contract against the survivors.
	names := make([]string, 0, len(c.contracts))
	for name := range c.contracts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := c.contracts[name]
		if e.revoked != nil {
			continue
		}
		if reason := c.reverifyLocked(e); reason != nil {
			e.revoked = reason
			for ch := range e.c.PerChannel {
				if !c.dead[ch] {
					c.stations[ch].ReleaseTxn(name)
				}
			}
			rep.Revoked = append(rep.Revoked, name)
			clRevoked.Inc()
			traceRing.Emit(obs.ContractRevoked, i, 0, 0, 0, 0)
		} else {
			c.reRegisterLocked(e)
			rep.Kept = append(rep.Kept, name)
		}
	}
	c.updateGaugesLocked()
	return rep, nil
}

// registrationPlanLocked returns the per-channel registration plan for
// a transaction: each live carrier channel paired with the reads it
// carries, and the registration deadline — the degraded bound when it
// exceeds the transaction's own deadline, since a worst replica
// legitimately bounds above the nominal deadline. Negotiate and
// failover re-registration share it so both enforce identical bounds.
// Caller holds mu.
func (c *Cluster) registrationPlanLocked(x Txn, degraded int) (map[int][]string, int) {
	groups := map[int][]string{}
	for _, read := range x.Reads {
		for _, ch := range c.liveHomesLocked(read) {
			groups[ch] = append(groups[ch], read)
		}
	}
	deadline := x.Deadline
	if degraded > deadline {
		deadline = degraded
	}
	return groups, deadline
}

// reRegisterLocked refreshes a kept contract's per-channel
// registrations after a failover: registrations on dead channels died
// with them, and re-admitted reads live on channels that never held
// one, so the read set is re-registered on every live carrier (best
// effort — the coordinator's own re-verification already vouched for
// the bounds). Caller holds mu.
//
//pinlint:cycle-boundary
func (c *Cluster) reRegisterLocked(e *clusterContractEntry) {
	for ch := range e.c.PerChannel {
		if !c.dead[ch] {
			c.stations[ch].ReleaseTxn(e.txn.Name)
		}
	}
	groups, deadline := c.registrationPlanLocked(e.txn, e.c.DegradedLatencySlots)
	perChannel := make(map[int]Contract, len(groups))
	for ch, reads := range groups {
		if ct, err := c.stations[ch].AdmitTxn(Txn{Name: e.txn.Name, Reads: reads, Deadline: deadline}); err == nil {
			perChannel[ch] = ct
		}
	}
	e.c.PerChannel = perChannel
}

// reverifyLocked re-computes a contract's cluster bound over the live
// channels and returns nil when it still fits the promised degraded
// bound, or the revocation reason (wrapping ErrDegraded). Caller holds
// mu.
func (c *Cluster) reverifyLocked(e *clusterContractEntry) error {
	worst := 0
	for _, read := range e.txn.Reads {
		if lostErr, lost := c.lost[read]; lost {
			return fmt.Errorf("pinbcast: contract %q: %w", e.txn.Name, lostErr)
		}
		live := c.liveHomesLocked(read)
		if len(live) == 0 {
			return fmt.Errorf("pinbcast: contract %q: read %q has no live channel: %w",
				e.txn.Name, read, ErrDegraded)
		}
		_, bounds, _ := c.rankHomes(read, live)
		worst = max(worst, bounds[0])
	}
	if worst > e.c.DegradedLatencySlots {
		return fmt.Errorf(
			"pinbcast: contract %q re-verified at %d slots, promised at most %d degraded: %w",
			e.txn.Name, worst, e.c.DegradedLatencySlots, ErrDegraded)
	}
	return nil
}

// planLocked places the orphans of failed channel i on the survivors,
// hottest first so the tightest guarantees get first claim on surviving
// capacity: each goes to the survivor with the most bandwidth headroom
// (its bandwidth minus the necessary bandwidth of its latest file set
// and of what is planned for it) that the density gate admits it to,
// the first in channel order on a tie. It returns each survivor's batch
// and records an orphan no survivor admits as lost. Caller holds mu.
func (c *Cluster) planLocked(orphans []FileSpec, survivors []int, i int, rep *FailoverReport) map[int][]FileSpec {
	slices.SortFunc(orphans, func(a, b FileSpec) int {
		return cmp.Or(cmp.Compare(cluster.Heat(b), cluster.Heat(a)), strings.Compare(a.Name, b.Name))
	})
	load := make(map[int][]FileSpec, len(survivors))
	for _, ch := range survivors {
		load[ch] = c.stations[ch].latest.Load().files
	}
	headroom := func(ch int) float64 {
		return float64(c.stations[ch].Bandwidth()) - core.NecessaryBandwidth(load[ch])
	}
	batches, ranked := map[int][]FileSpec{}, slices.Clone(survivors)
	for _, f := range orphans {
		slices.SortFunc(ranked, func(a, b int) int { return cmp.Or(cmp.Compare(headroom(b), headroom(a)), a-b) })
		placed := false
		for _, ch := range ranked {
			if next, err := rtdb.Admit(load[ch], c.stations[ch].Bandwidth(), f); err == nil {
				load[ch], batches[ch], placed = next, append(batches[ch], f), true
				break
			}
		}
		if !placed {
			c.lost[f.Name] = fmt.Errorf("pinbcast: file %q lost with channel %d (no survivor could admit it): %w",
				f.Name, i, ErrDegraded)
			if rep.Lost == nil {
				rep.Lost = map[string]error{}
			}
			rep.Lost[f.Name] = c.lost[f.Name]
			clFilesLost.Inc()
		}
	}
	return batches
}
