package pinbcast

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"net"
	"slices"
	"testing"
	"time"

	"pinbcast/internal/cluster"
	"pinbcast/internal/workload"
)

// clusterCatalog is the deterministic six-file catalog the cluster
// tests shard three ways: two hot files (replicated), one warm and
// three cool/cold files that land together on the third channel under
// the balanced policy.
func clusterCatalog() []FileSpec {
	return []FileSpec{
		{Name: "hot-a", Blocks: 2, Latency: 8, Faults: 1}, // heat 3/8
		{Name: "hot-b", Blocks: 2, Latency: 8, Faults: 1}, // heat 3/8
		{Name: "warm", Blocks: 3, Latency: 30, Faults: 1}, // heat 2/15
		{Name: "cool-a", Blocks: 4, Latency: 60, Faults: 1},
		{Name: "cool-b", Blocks: 4, Latency: 60, Faults: 1},
		{Name: "cold", Blocks: 6, Latency: 120, Faults: 1},
	}
}

func testCluster(t *testing.T, opts ...ClusterOption) *Cluster {
	t.Helper()
	files := clusterCatalog()
	base := []ClusterOption{
		WithChannels(3),
		WithReplicas(2),
		WithReplicateHottest(2),
		WithShardName(ShardBalanced),
		WithBandwidth(2),
		WithFiles(files...),
		WithContents(CatalogContents(files, 64, 1)),
	}
	c, err := NewCluster(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterPlan(t *testing.T) {
	c := testCluster(t)
	if c.Channels() != 3 || c.Replicas() != 2 || c.ShardPolicy() != ShardBalanced {
		t.Fatalf("K=%d R=%d shard=%s", c.Channels(), c.Replicas(), c.ShardPolicy())
	}
	asn := c.Assignment()
	for _, name := range []string{"hot-a", "hot-b"} {
		if len(asn[name]) != 2 {
			t.Fatalf("%s homes = %v, want 2 replicas", name, asn[name])
		}
	}
	for _, name := range []string{"warm", "cool-a", "cool-b", "cold"} {
		if len(asn[name]) != 1 {
			t.Fatalf("%s homes = %v, want 1", name, asn[name])
		}
	}
	// Every channel serves a valid station over its own file subset.
	total := 0
	for i := 0; i < c.Channels(); i++ {
		st := c.Station(i)
		if st == nil {
			t.Fatalf("no station for channel %d", i)
		}
		total += len(st.Files())
		if st.Bandwidth() != 2 {
			t.Fatalf("channel %d bandwidth %d", i, st.Bandwidth())
		}
	}
	if total != 6+2 { // catalog plus two replicas
		t.Fatalf("stations carry %d files in total, want 8", total)
	}
	// The merged directory resolves every file of the catalog.
	dir := c.Directory()
	if len(dir) != 6 {
		t.Fatalf("merged directory has %d entries, want 6", len(dir))
	}
	if got := dir[FileID("warm")]; got != "warm" {
		t.Fatalf("directory[FileID(warm)] = %q", got)
	}
	// The fetch plan covers every file with live channels only.
	plan := c.FetchPlan()
	if len(plan) != 6 {
		t.Fatalf("fetch plan covers %d files", len(plan))
	}
	if len(plan["hot-a"]) != 2 || len(plan["cold"]) != 1 {
		t.Fatalf("fetch plan: hot-a=%v cold=%v", plan["hot-a"], plan["cold"])
	}
}

func TestClusterBuildValidation(t *testing.T) {
	files := clusterCatalog()
	cases := []struct {
		name string
		opts []ClusterOption
	}{
		{"no contents", []ClusterOption{WithChannels(2), WithFiles(files...)}},
		{"zero channels", []ClusterOption{WithChannels(0)}},
		{"negative replicas", []ClusterOption{WithReplicas(0)}},
		{"unknown shard", []ClusterOption{WithShardName("mystery")}},
		{"replicas over channels", []ClusterOption{
			WithChannels(2), WithReplicas(3),
			WithFiles(files...), WithContents(CatalogContents(files, 64, 1)),
		}},
		{"no files", []ClusterOption{WithChannels(2)}},
		{"duplicate file", []ClusterOption{
			WithFiles(files...), WithFiles(files[0]), WithContents(CatalogContents(files, 64, 1)),
		}},
	}
	for _, tc := range cases {
		if _, err := NewCluster(tc.opts...); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: got %v, want ErrBadSpec", tc.name, err)
		}
	}
}

// TestClusterPlansEveryCatalogueFile holds a file given by WithFile to
// the plan like the files of WithFiles: it is in the fetch plan, exactly
// its planned homes carry it, and FailChannel re-homes it.
func TestClusterPlansEveryCatalogueFile(t *testing.T) {
	files := []FileSpec{
		{Name: "a", Blocks: 2, Latency: 8, Faults: 1},
		{Name: "b", Blocks: 3, Latency: 30, Faults: 1},
	}
	x := FileSpec{Name: "x", Blocks: 2, Latency: 60, Faults: 1}
	c, err := NewCluster(WithChannels(2), WithBandwidth(SufficientBandwidth(append(files, x))),
		WithFiles(files...), WithContents(CatalogContents(files, 64, 1)),
		WithFile(x, bytes.Repeat([]byte("x"), 100)))
	if err != nil {
		t.Fatal(err)
	}
	homes := c.Assignment()["x"]
	if plan := c.FetchPlan()["x"]; len(plan) == 0 || !slices.Equal(slices.Sorted(slices.Values(plan)), slices.Sorted(slices.Values(homes))) {
		t.Fatalf("fetch plan for x = %v, homes %v", plan, homes)
	}
	for ch := range c.Channels() {
		carries := c.Station(ch).Program().FileIndex("x") >= 0
		if carries != slices.Contains(homes, ch) {
			t.Fatalf("channel %d carries x: %v, but x's homes are %v", ch, carries, homes)
		}
	}
	if len(homes) != 1 {
		t.Fatalf("x homes = %v, want one: only the hottest file is replicated", homes)
	}
	if _, err := c.FailChannel(homes[0]); err != nil {
		t.Fatal(err)
	}
	if now := c.Assignment()["x"]; len(now) != 1 || now[0] == homes[0] {
		t.Fatalf("after channel %d failed x is on %v, want the survivor", homes[0], now)
	}
}

func TestShardRegistry(t *testing.T) {
	want := []string{ShardBalanced, ShardHash, ShardHotCold}
	if names := ShardNames(); !slices.Equal(names, want) {
		t.Fatalf("ShardNames = %v, want %v", names, want)
	}
	policies := map[string]cluster.Shard{
		ShardBalanced: cluster.BalancedShard, ShardHash: cluster.HashShard, ShardHotCold: cluster.HotColdShard}
	for _, w := range want {
		c := testCluster(t, WithShardName(w))
		if got := c.ShardPolicy(); got != w {
			t.Fatalf("WithShardName(%q) runs %q", w, got)
		}
		asn, err := cluster.Plan(clusterCatalog(), 3, 2, 2, policies[w])
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Assignment(); !maps.EqualFunc(got, asn.Homes, slices.Equal[[]int]) {
			t.Fatalf("WithShardName(%q) plans %v, the policy %v", w, got, asn.Homes)
		}
	}
	files := clusterCatalog()
	_, err := NewCluster(WithFiles(files...), WithContents(CatalogContents(files, 64, 1)), WithShardName("mystery"))
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("WithShardName of an unknown name: err = %v, want ErrBadSpec", err)
	}
}

func TestClusterNegotiateComposition(t *testing.T) {
	c := testCluster(t)
	// Single replicated read: the analytic window bound B·T = 2·8 = 16
	// on either replica.
	ca, err := c.Negotiate(Txn{Name: "trip-a", Reads: []string{"hot-a"}, Deadline: 100})
	if err != nil {
		t.Fatal(err)
	}
	if ca.WorstLatencySlots != 16 || ca.DegradedLatencySlots != 16 {
		t.Fatalf("hot-a contract = %+v, want 16/16", ca)
	}
	// A replicated read is defended on every carrier, not just the best
	// replica — the degraded bound is only as strong as the worst one.
	if len(ca.PerChannel) != 2 {
		t.Fatalf("hot-a registrations = %v, want both replica channels", ca.PerChannel)
	}
	// Multi-read transaction across channels: bounded by the slowest
	// read's best replica (warm: 2·30 = 60), with one per-channel
	// contract per primary group.
	tour, err := c.Negotiate(Txn{Name: "tour", Reads: []string{"hot-a", "warm"}, Deadline: 200})
	if err != nil {
		t.Fatal(err)
	}
	if tour.WorstLatencySlots != 60 || tour.DegradedLatencySlots != 60 {
		t.Fatalf("tour contract = %+v, want 60/60", tour)
	}
	if len(tour.PerChannel) != 2 {
		t.Fatalf("tour groups = %v, want 2 channels", tour.PerChannel)
	}
	for ch, ct := range tour.PerChannel {
		if ct.Name != "tour" {
			t.Fatalf("channel %d contract named %q", ch, ct.Name)
		}
		found := false
		for _, sc := range c.Station(ch).Contracts() {
			if sc.Name == "tour" {
				found = true
			}
		}
		if !found {
			t.Fatalf("channel %d station does not enforce the tour group", ch)
		}
	}
	// Duplicate and unknown rejections.
	if _, err := c.Negotiate(Txn{Name: "tour", Reads: []string{"cold"}, Deadline: 500}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate: %v", err)
	}
	if _, err := c.Negotiate(Txn{Name: "x", Reads: []string{"nope"}, Deadline: 500}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown read: %v", err)
	}
	// Unmeetable deadline leaves everything untouched.
	before := len(c.Contracts())
	if _, err := c.Negotiate(Txn{Name: "fast", Reads: []string{"warm"}, Deadline: 10}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("tight deadline: %v", err)
	}
	if len(c.Contracts()) != before {
		t.Fatal("rejected negotiation changed the contract set")
	}
	// Release frees the name and the per-channel registrations.
	if err := c.Release("tour"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Contract("tour"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("released contract still known: %v", err)
	}
	for ch := range tour.PerChannel {
		for _, sc := range c.Station(ch).Contracts() {
			if sc.Name == "tour" {
				t.Fatalf("channel %d still enforces released tour", ch)
			}
		}
	}
}

// TestClusterKillChannelE2E is the acceptance kill test: K=3, R=2 over
// the real TCP fan-out seam. One channel is killed mid-broadcast; every
// replicated request stays retrievable by the MultiTuner within its
// contracted (degraded) latency bound, and the dead channel's
// un-replicated files are re-admitted onto survivors at their next
// data-cycle boundaries (contracts re-verified) and retrieved from
// their new homes.
func TestClusterKillChannelE2E(t *testing.T) {
	c := testCluster(t, WithSlotInterval(50*time.Microsecond), WithSlotBuffer(256))

	// Contracts before the failure: two replicated reads and the warm
	// file that lives only on the channel we will kill.
	ca, err := c.Negotiate(Txn{Name: "trip-a", Reads: []string{"hot-a"}, Deadline: 100})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := c.Negotiate(Txn{Name: "trip-b", Reads: []string{"hot-b"}, Deadline: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Negotiate(Txn{Name: "watch", Reads: []string{"warm"}, Deadline: 200}); err != nil {
		t.Fatal(err)
	}

	// One TCP fan-out per channel.
	fans := make([]Sink, c.Channels())
	addrs := make([]string, c.Channels())
	for i := range fans {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fan := NewFanout(ln, 0)
		defer fan.Close()
		fans[i] = fan
		addrs[i] = fan.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streams, err := c.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	broadcastDone := make(chan error, len(streams))
	for i, slots := range streams {
		go func() { broadcastDone <- pump(slots, fans[i]) }()
	}

	// The multi-tuner subscribes to all three channels.
	srcs := make([]Source, c.Channels())
	for i := range srcs {
		src, err := DialSource(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		src.Timeout = 100 * time.Millisecond
		src.Reuse = true
		srcs[i] = src
	}
	stalePlan := c.FetchPlan() // the pre-failure view a real tuner would hold
	mt, err := NewMultiTuner(srcs,
		WithDirectory(c.Directory()),
		WithTunerHomes(stalePlan),
		WithRequest("hot-a", ca.DegradedLatencySlots),
		WithRequest("hot-b", cb.DegradedLatencySlots),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	// Phase 1: normal operation — both replicated files arrive within
	// their contracted bounds.
	results, err := mt.RunInto(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Completed || !res.DeadlineMet {
			t.Fatalf("pre-kill request %q: %+v", res.File, res)
		}
	}

	// Find the channel that alone carries the un-replicated files.
	warmHome := stalePlan["warm"][0]
	survivor := c.Station((warmHome + 1) % 3)
	preGen := make([]int, c.Channels())
	for i := 0; i < c.Channels(); i++ {
		preGen[i] = c.Station(i).Generation()
	}

	// Kill it mid-broadcast and fail it over.
	rep, err := c.FailChannel(warmHome)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lost) != 0 {
		t.Fatalf("unexpected lost files: %v", rep.Lost)
	}
	for _, name := range []string{"warm", "cool-a", "cool-b", "cold"} {
		ch, ok := rep.Readmitted[name]
		if !ok {
			t.Fatalf("%s not re-admitted (report %+v)", name, rep)
		}
		if ch == warmHome {
			t.Fatalf("%s re-admitted to the dead channel", name)
		}
	}
	if len(rep.Kept) != 3 || len(rep.Revoked) != 0 {
		t.Fatalf("contracts kept=%v revoked=%v, want all three kept", rep.Kept, rep.Revoked)
	}
	cw, err := c.Contract("watch")
	if err != nil {
		t.Fatalf("watch contract should have been re-verified: %v", err)
	}
	// The kept contract's enforcement followed its read to the
	// re-admitted channel.
	if _, ok := cw.PerChannel[rep.Readmitted["warm"]]; !ok {
		t.Fatalf("watch not re-registered on warm's new home %d: %v",
			rep.Readmitted["warm"], cw.PerChannel)
	}

	// The re-admissions land at the survivors' next data-cycle
	// boundaries: their generations swap and the files go on air.
	waitFor := func(name string, ch int) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			files := c.Station(ch).Files()
			for _, f := range files {
				if f.Name == name {
					if c.Station(ch).Generation() == preGen[ch] {
						t.Fatalf("%s on channel %d without a generation swap", name, ch)
					}
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s not on air on channel %d within one data cycle (files %v)", name, ch, files)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, name := range []string{"warm", "cool-a", "cool-b", "cold"} {
		waitFor(name, rep.Readmitted[name])
	}
	_ = survivor

	// Phase 2: retrieval under failure, through the *stale* fetch plan,
	// with hot-a requested dead-channel-first. Frames the dead channel
	// transmitted before the kill are legitimately still on the wire
	// (TCP backlog), so early retrievals may complete from them —
	// within the contracted bound, like any broadcast slots. Once the
	// backlog runs dry the missed-slot detector declares the channel
	// dead and the request hops to the surviving replica.
	hotPlan := []int{warmHome}
	for _, ch := range stalePlan["hot-a"] {
		if ch != warmHome {
			hotPlan = append(hotPlan, ch)
		}
	}
	runCtx, runCancel := context.WithTimeout(ctx, 60*time.Second)
	defer runCancel()
	hopped := false
	for round := 0; round < 500 && !hopped; round++ {
		if err := mt.requestVia("hot-a", ca.DegradedLatencySlots, hotPlan); err != nil {
			t.Fatal(err)
		}
		results, err = mt.RunInto(runCtx, results)
		if err != nil {
			t.Fatal(err)
		}
		res := results[len(results)-1]
		if res.File != "hot-a" || !res.Completed || !res.DeadlineMet {
			t.Fatalf("post-kill hot-a round %d not retrieved in time: %+v", round, res)
		}
		if res.Latency > ca.DegradedLatencySlots {
			t.Fatalf("post-kill hot-a latency %d exceeds contracted bound %d",
				res.Latency, ca.DegradedLatencySlots)
		}
		hopped = res.Channel != warmHome
	}
	if !hopped {
		t.Fatal("hot-a never hopped off the dead channel")
	}

	// The other replicated file, through its own (live-first) plan.
	if err := mt.requestVia("hot-b", cb.DegradedLatencySlots, stalePlan["hot-b"]); err != nil {
		t.Fatal(err)
	}
	results, err = mt.RunInto(runCtx, results)
	if err != nil {
		t.Fatal(err)
	}
	if res := results[len(results)-1]; res.File != "hot-b" || !res.Completed || !res.DeadlineMet ||
		res.Latency > cb.DegradedLatencySlots || res.Channel == warmHome {
		t.Fatalf("post-kill hot-b: %+v (bound %d)", res, cb.DegradedLatencySlots)
	}

	// warm's only planned home is dead (and now detected dead, so the
	// stale plan is exhausted immediately): the tuner must find its
	// re-admitted copy by scanning the survivors.
	if err := mt.requestVia("warm", 0, stalePlan["warm"]); err != nil {
		t.Fatal(err)
	}
	results, err = mt.RunInto(runCtx, results)
	if err != nil {
		t.Fatal(err)
	}
	warmRes := results[len(results)-1]
	if warmRes.File != "warm" || !warmRes.Completed || warmRes.Channel != rep.Readmitted["warm"] {
		t.Fatalf("warm not retrieved from its re-admitted home: %+v (want channel %d)",
			warmRes, rep.Readmitted["warm"])
	}
	m := mt.Metrics()
	if m.Hops == 0 {
		t.Fatalf("expected at least one channel hop, metrics %+v", m)
	}
	deadSeen := false
	for _, ch := range m.DeadChannels {
		if ch == warmHome {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Fatalf("missed-slot detector never declared channel %d dead: %+v", warmHome, m)
	}

	cancel()
	for range streams {
		if err := <-broadcastDone; err != nil {
			t.Fatalf("broadcast: %v", err)
		}
	}
}

// TestClusterFailoverLossAndRevocation drives the degraded path
// in-process: an un-replicated file whose only channel dies cannot be
// re-admitted (the survivor has no density headroom), so it is lost and
// its contract is revoked with ErrDegraded, while the replicated file's
// contract is re-verified and kept.
func TestClusterFailoverLossAndRevocation(t *testing.T) {
	files := []FileSpec{
		{Name: "big-a", Blocks: 5, Latency: 10},
		{Name: "big-b", Blocks: 5, Latency: 10},
	}
	c, err := NewCluster(
		WithChannels(2),
		WithReplicateHottest(1), // big-a replicated on both channels
		WithShardName(ShardBalanced),
		WithFiles(files...),
		WithContents(CatalogContents(files, 32, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := c.Negotiate(Txn{Name: "keep", Reads: []string{"big-a"}, Deadline: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Negotiate(Txn{Name: "watch-b", Reads: []string{"big-b"}, Deadline: 100}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := c.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []Source{SlotSource(slots[0]), SlotSource(slots[1])}
	plan := c.FetchPlan()
	mt, err := NewMultiTuner(srcs, WithDirectory(c.Directory()), WithTunerHomes(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	bHome := plan["big-b"][0]
	rep, err := c.FailChannel(bHome)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lost) != 1 || !errors.Is(rep.Lost["big-b"], ErrDegraded) {
		t.Fatalf("lost = %v, want big-b with ErrDegraded", rep.Lost)
	}
	if len(rep.Revoked) != 1 || rep.Revoked[0] != "watch-b" {
		t.Fatalf("revoked = %v, want [watch-b]", rep.Revoked)
	}
	if len(rep.Kept) != 1 || rep.Kept[0] != "keep" {
		t.Fatalf("kept = %v, want [keep]", rep.Kept)
	}
	if _, err := c.Contract("watch-b"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("watch-b contract: %v, want ErrDegraded", err)
	}
	if _, err := c.Contract("keep"); err != nil {
		t.Fatalf("keep contract: %v", err)
	}
	if _, ok := c.Assignment()["big-b"]; ok {
		t.Fatal("lost file still in the assignment")
	}
	if _, err := c.Negotiate(Txn{Name: "late", Reads: []string{"big-b"}, Deadline: 100}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("negotiating a lost read: %v, want ErrDegraded", err)
	}
	// Double-failing wraps ErrBadSpec.
	if _, err := c.FailChannel(bHome); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("double fail: %v", err)
	}

	// The replicated file is still retrievable from the survivor; the
	// dead channel's slot stream has closed, so its drive sees EOF and
	// the detector reports the death.
	if err := mt.requestVia("big-a", keep.DegradedLatencySlots, []int{bHome, 1 - bHome}); err != nil {
		t.Fatal(err)
	}
	runCtx, runCancel := context.WithTimeout(ctx, 10*time.Second)
	defer runCancel()
	results, err := mt.RunInto(runCtx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Completed || results[0].Channel != 1-bHome {
		t.Fatalf("big-a retrieval: %+v", results)
	}
	if results[0].Latency > keep.DegradedLatencySlots {
		t.Fatalf("big-a latency %d exceeds degraded bound %d", results[0].Latency, keep.DegradedLatencySlots)
	}

	// A request for the lost file fails cleanly when the context ends.
	if err := mt.Request("big-b", 0); err != nil {
		t.Fatal(err)
	}
	lostCtx, lostCancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer lostCancel()
	results, runErr := mt.RunInto(lostCtx, nil)
	if !errors.Is(runErr, context.DeadlineExceeded) {
		t.Fatalf("lost-file run: %v", runErr)
	}
	found := false
	for _, res := range results {
		if res.File == "big-b" {
			found = true
			if res.Completed || res.Channel != -1 {
				t.Fatalf("lost file completed impossibly: %+v", res)
			}
		}
	}
	if !found {
		t.Fatal("lost-file request was not flushed as a failure")
	}
}

// cycleOnAir serves one data cycle of the station's latest generation
// from its first slot.
func cycleOnAir(t *testing.T, st *Station) []Slot {
	t.Helper()
	return air(t, st, st.latest.Load().program.DataCycle())
}

// cyclesOnAir serves one data cycle of each channel of the cluster.
func cyclesOnAir(t *testing.T, c *Cluster) [][]Slot {
	cycles := make([][]Slot, c.Channels())
	for ch := range cycles {
		cycles[ch] = cycleOnAir(t, c.Station(ch))
	}
	return cycles
}

// plannedWidths returns how many channels each file of a cluster not yet
// failed over is planned on: its code is that many rotations wide.
func plannedWidths(c *Cluster) map[string]int {
	widths := map[string]int{}
	for name, homes := range c.Assignment() {
		widths[name] = len(homes)
	}
	return widths
}

// checkDisjointRanges holds what the live channels of a cluster put on
// the air over one data cycle each to the numbering rule: every live
// home of a file sends exactly its N rotation positions' worth of
// distinct block numbers, all of one range of a code as many rotations
// wide as the file was planned on channels (widths), and no two live
// homes share a number. On every home of a file planned on several
// channels a plain Receiver tuning in at any slot of the cycle still has
// the file, byte for byte, inside B·Tᵢ. It returns how many such files
// it saw.
func checkDisjointRanges(t *testing.T, c *Cluster, widths map[string]int, files []FileSpec, contents map[string][]byte) (replicated int) {
	t.Helper()
	cycles := make([][]Slot, c.Channels())
	homes := c.Assignment()
	for _, f := range files {
		var held [256]int // block number -> 1 + the channel sending it
		for _, ch := range homes[f.Name] {
			if cycles[ch] == nil {
				cycles[ch] = cycleOnAir(t, c.Station(ch))
			}
			sent, ranges := 0, map[int]bool{}
			for _, slot := range cycles[ch] {
				if slot.File != f.Name {
					continue
				}
				if b := slot.Block; slot.Seq != int(b.Seq) || int(b.M) != f.Blocks || int(b.N) != widths[f.Name]*f.Width() {
					t.Fatalf("channel %d slot %d: %s/%d is block %d, m %d of %d; planned on %d channels, rotation %d",
						ch, slot.T, f.Name, slot.Seq, b.Seq, b.M, b.N, widths[f.Name], f.Width())
				}
				switch held[slot.Seq] {
				case 0:
					held[slot.Seq], sent = 1+ch, sent+1
					ranges[slot.Seq/f.Width()] = true
				case 1 + ch:
				default:
					t.Fatalf("channels %d and %d both send block %d of %q", held[slot.Seq]-1, ch, slot.Seq, f.Name)
				}
			}
			if sent != f.Width() || len(ranges) != 1 {
				t.Fatalf("channel %d sends %d distinct blocks of %q over ranges %v, want one range of %d", ch, sent, f.Name, ranges, f.Width())
			}
			if widths[f.Name] == 1 {
				continue
			}
			window := c.Station(ch).Bandwidth() * f.Latency
			for start := range cycles[ch] {
				rcv, err := Subscribe(&LoopReplay{Slots: cycles[ch], Pos: start},
					WithDirectory(c.Directory()), WithRequest(f.Name, window))
				if err != nil {
					t.Fatal(err)
				}
				res, err := rcv.RunInto(context.Background(), nil)
				if err != nil || len(res) != 1 || !res[0].DeadlineMet || res[0].BlocksUsed != f.Blocks || !bytes.Equal(res[0].Data, contents[f.Name]) {
					t.Fatalf("channel %d alone, %q from slot %d: %+v (%v), window %d", ch, f.Name, start, res, err, window)
				}
			}
		}
		if widths[f.Name] > 1 && len(homes[f.Name]) > 0 {
			replicated++
		}
	}
	return replicated
}

// TestClusterReplicasCarryDisjointRanges: on the paced daemon cluster and
// on the three-channel test cluster every home of a replicated file
// sends its own range of one code — before a channel fails, after its
// orphans are re-admitted on the survivors, and when a replicated file
// loses every home and is re-admitted with its planned width. A file
// whose code would be wider than 256 blocks is refused when the cluster
// is planned.
func TestClusterReplicasCarryDisjointRanges(t *testing.T) {
	daemon, daemonFiles := daemonCluster(t, true)
	daemonContents, daemonWidths := workload.Contents(daemonFiles, 16, 1), plannedWidths(daemon)
	if n := checkDisjointRanges(t, daemon, daemonWidths, daemonFiles, daemonContents); n != 4 {
		t.Fatalf("the daemon cluster replicates %d files, want 4", n)
	}
	rep, err := daemon.FailChannel(0)
	if err != nil || len(rep.Readmitted) == 0 {
		t.Fatalf("failing channel 0 re-admitted %v (%v)", rep, err)
	}
	checkDisjointRanges(t, daemon, daemonWidths, daemonFiles, daemonContents)

	files := clusterCatalog()
	contents := CatalogContents(files, 64, 1)
	c := testCluster(t)
	widths := plannedWidths(c)
	if n := checkDisjointRanges(t, c, widths, files, contents); n != 2 {
		t.Fatalf("the test cluster replicates %d files, want 2", n)
	}
	homes := c.Assignment()["hot-a"]
	for _, ch := range []int{homes[1], homes[0]} {
		rep, err := c.FailChannel(ch)
		if err != nil || len(rep.Readmitted) == 0 {
			t.Fatalf("failing channel %d re-admitted %+v (%v)", ch, rep, err)
		}
		checkDisjointRanges(t, c, widths, files, contents)
	}
	// hot-a lost both homes: the last channel sends range 0 of the code
	// planned two rotations wide, which checkDisjointRanges has held it to.
	if live := c.Assignment()["hot-a"]; len(live) != 1 || slices.Contains(homes, live[0]) {
		t.Fatalf("hot-a was on %v, both failed, and is now on %v", homes, live)
	}

	wide := []FileSpec{{Name: "w", Blocks: 100, Latency: 300, Faults: 28}, {Name: "x", Blocks: 1, Latency: 300}}
	for _, refused := range []bool{false, true} {
		_, err = NewCluster(WithChannels(2), WithReplicas(2), WithReplicateHottest(1),
			WithFiles(wide...), WithContents(CatalogContents(wide, 8, 1)))
		if errors.Is(err, ErrBadSpec) != refused || !refused && err != nil {
			t.Fatalf("a rotation of %d blocks on two channels: %v", wide[0].Width(), err)
		}
		wide[0].Faults++ // 129 blocks a rotation: a code of 258
	}
}
