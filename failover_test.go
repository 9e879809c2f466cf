package pinbcast

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"testing"
)

// failoverCatalog is sixteen files of mixed width and latency, in name
// order.
func failoverCatalog() []FileSpec {
	files := make([]FileSpec, 16)
	for i := range files {
		files[i] = FileSpec{Name: fmt.Sprintf("f%02d", i), Blocks: 2 + i%4, Latency: 20 + 7*i, Faults: 1}
	}
	return files
}

// failoverCluster shards failoverCatalog over four channels, the two
// hottest on two each, every station sized by Equation 2 on its own
// files: each channel's orphans have more than one survivor to land on.
func failoverCluster(t *testing.T, opts ...ClusterOption) *Cluster {
	t.Helper()
	files := failoverCatalog()
	c, err := NewCluster(append([]ClusterOption{
		WithChannels(4), WithReplicas(2), WithReplicateHottest(2),
		WithFiles(files...), WithContents(CatalogContents(files, 16, 1)),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFailChannelPlacementIgnoresServing: where a failed channel's
// orphans land does not depend on whether the cluster is serving. A
// survivor's headroom counts the orphans already staged on it for its
// next data-cycle boundary, not only the files on the air.
func TestFailChannelPlacementIgnoresServing(t *testing.T) {
	for failed := 0; failed < 4; failed++ {
		want, err := failoverCluster(t).FailChannel(failed)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Readmitted) < 2 {
			t.Fatalf("channel %d orphans %v: too few to place", failed, want.Readmitted)
		}
		c := failoverCluster(t)
		ctx, cancel := context.WithCancel(context.Background())
		streams, err := c.Serve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.FailChannel(failed)
		cancel()
		for _, s := range streams {
			for range s {
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got.Readmitted, want.Readmitted) {
			t.Errorf("failing channel %d re-admits %v on a serving cluster, %v on an idle one", failed, got.Readmitted, want.Readmitted)
		}
	}
}

// TestFailChannelBuildsOncePerSurvivor: a failover builds one generation
// on each survivor it changes and none on the others, and an orphan the
// failed channel sent whole keeps the frames it sent there. A survivor
// whose build a standing contract refuses takes none of its orphans;
// they go to the next survivor, and are lost only when no survivor takes
// them.
func TestFailChannelBuildsOncePerSurvivor(t *testing.T) {
	for _, paced := range []bool{false, true} {
		var opts []ClusterOption
		if paced {
			opts = append(opts, WithSlotInterval(pacerTestInterval))
		}
		for failed := 0; failed < 4; failed++ {
			c := failoverCluster(t, opts...)
			homes, before := c.Assignment(), make([]int, c.Channels())
			for ch := range before {
				before[ch] = c.Station(ch).Generation()
			}
			rep, err := c.FailChannel(failed)
			if err != nil {
				t.Fatal(err)
			}
			took, changed := map[int]bool{}, map[int]bool{}
			for _, ch := range rep.Readmitted {
				took[ch], changed[ch] = true, true
			}
			for _, h := range homes {
				// The next home takes over the spare air of a file the
				// failed channel was first to carry.
				if paced && len(h) > 1 && h[0] == failed {
					changed[h[1]] = true
				}
			}
			for ch, was := range before {
				if ch == failed {
					continue
				}
				want := was
				if changed[ch] {
					want++
				}
				if got := c.Station(ch).Generation(); got != want {
					t.Errorf("paced %v, channel %d failed: survivor %d went from generation %d to %d, want %d", paced, failed, ch, was, got, want)
				}
				if n := c.Station(ch).latest.Load().srv.Encoded(); took[ch] && n != 0 {
					t.Errorf("paced %v, channel %d failed: survivor %d encoded %d files, the failed channel sent them all whole", paced, failed, ch, n)
				}
			}
		}
	}

	// h0 lands on channel 0, h1 on channel 1 and the six cold files on
	// channel 2. A survivor is refused any build by a planted contract
	// no window meets.
	files := []FileSpec{{Name: "h0", Blocks: 4, Latency: 10}, {Name: "h1", Blocks: 2, Latency: 10}}
	for i := 0; i < 6; i++ {
		files = append(files, FileSpec{Name: fmt.Sprintf("c%d", i), Blocks: 1, Latency: 100})
	}
	for _, tc := range []struct {
		refuse []int
		want   map[string]int // Readmitted; nil: h1 is lost
	}{
		{[]int{2}, map[string]int{"h1": 0}}, // channel 2 has the headroom and is refused
		{[]int{0, 2}, nil},
	} {
		c, err := NewCluster(WithChannels(3), WithReplicas(1), WithBandwidth(2),
			WithFiles(files...), WithContents(CatalogContents(files, 16, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if h := c.Assignment(); h["h0"][0] != 0 || h["h1"][0] != 1 || len(c.Station(2).Files()) != 6 {
			t.Fatalf("the catalogue is sharded %v", h)
		}
		for _, ch := range tc.refuse {
			st := c.Station(ch)
			st.qos["refuse"] = qosEntry{txn: Txn{Name: "refuse", Reads: []string{st.Files()[0].Name}, Deadline: 1}, c: Contract{Name: "refuse"}}
		}
		gens := []int{c.Station(0).Generation(), c.Station(2).Generation()}
		rep, err := c.FailChannel(1)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(rep.Readmitted, tc.want) || (tc.want == nil) != errors.Is(rep.Lost["h1"], ErrDegraded) {
			t.Fatalf("refusing %v: re-admitted %v, lost %v; want %v", tc.refuse, rep.Readmitted, rep.Lost, tc.want)
		}
		if got := c.Station(2).Generation(); got != gens[1] || len(c.Station(2).latest.Load().files) != 6 {
			t.Errorf("refusing %v: the refused survivor moved from generation %d to %d", tc.refuse, gens[1], got)
		}
		if got, want := c.Station(0).Generation(), gens[0]+len(tc.want); got != want {
			t.Errorf("refusing %v: channel 0 is at generation %d, want %d", tc.refuse, got, want)
		}
	}
}

// TestFailChannelOrphansAreTheCatalogueFilesItCarries: a failed
// channel's orphans are the catalogue files its latest generation
// carries. Under the balanced policy at bandwidth 12, warm, cool-a,
// cool-b and cold are on channel 2 alone, beside a replica of hot-a, and
// channel 1 takes them all when channel 2 fails. A file evicted from
// channel 2 first is no orphan (its contents went with it, and
// re-admitting it would refuse the whole batch it rode in): it is
// neither re-admitted nor lost, and has no live home. A file admitted on
// channel 2 outside the catalogue is no orphan either.
func TestFailChannelOrphansAreTheCatalogueFilesItCarries(t *testing.T) {
	all := map[string]int{"warm": 1, "cool-a": 1, "cool-b": 1, "cold": 1}
	for _, tc := range []struct {
		name   string
		change func(*Station) error
		want   map[string]int // Readmitted
	}{
		{"unchanged", func(*Station) error { return nil }, all},
		{"cold evicted", func(st *Station) error { return st.Evict("cold") },
			map[string]int{"warm": 1, "cool-a": 1, "cool-b": 1}},
		{"extra admitted", func(st *Station) error {
			return st.Admit(FileSpec{Name: "extra", Blocks: 2, Latency: 120, Faults: 1}, []byte("outside the catalogue"))
		}, all},
	} {
		c := testCluster(t, WithBandwidth(12))
		if h := c.Assignment(); !slices.Equal(h["warm"], []int{2}) || !slices.Equal(h["cold"], []int{2}) || len(c.Station(2).Files()) != 5 {
			t.Fatalf("%s: the catalogue is sharded %v", tc.name, h)
		}
		if err := tc.change(c.Station(2)); err != nil {
			t.Fatal(err)
		}
		rep, err := c.FailChannel(2)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(rep.Readmitted, tc.want) || len(rep.Lost) != 0 {
			t.Fatalf("%s: re-admitted %v, lost %v; want %v re-admitted and nothing lost", tc.name, rep.Readmitted, rep.Lost, tc.want)
		}
		if _, carried := tc.want["cold"]; !carried {
			if _, err := c.Negotiate(Txn{Name: "cold", Reads: []string{"cold"}, Deadline: 1 << 20}); !errors.Is(err, ErrDegraded) {
				t.Fatalf("%s: negotiating a read of cold: %v, want ErrDegraded", tc.name, err)
			}
		}
	}
}

// TestClusterQuorum checks the quorum exhaustively: with the replicated
// files on R = 3 of K = 4 channels, any K−R+1 live channels carry each of
// them ("A Novel Quorum Protocol"). For every set of fewer than R
// channels, a fresh cluster negotiates a contract over the replicated
// files and then loses the set. The contract is kept, every replicated
// file keeps a live home, and on each live home's served data cycle,
// from every start slot and against the file's r erasures, the oracle
// stays within DegradedLatencySlots.
func TestClusterQuorum(t *testing.T) {
	const k, r = 4, 3
	for set := 0; set < 1<<k; set++ {
		if bits.OnesCount(uint(set)) >= r {
			continue
		}
		c := failoverCluster(t, WithReplicas(r))
		var replicated []FileSpec
		var reads []string
		planned := c.Assignment()
		for _, f := range failoverCatalog() {
			if len(planned[f.Name]) == r {
				replicated, reads = append(replicated, f), append(reads, f.Name)
			}
		}
		x := Txn{Name: "quorum", Reads: reads, Deadline: 1 << 20}
		cc, err := c.Negotiate(x)
		if err != nil || len(reads) == 0 {
			t.Fatalf("negotiating over the replicated files %v: %v", reads, err)
		}
		for ch := range k {
			if set&(1<<ch) == 0 {
				continue
			}
			if rep, err := c.FailChannel(ch); err != nil || !slices.Contains(rep.Kept, x.Name) {
				t.Fatalf("dead set %04b: failing channel %d kept %v (%v)", set, ch, rep, err)
			}
		}
		if got, err := c.Contract(x.Name); err != nil || got.DegradedLatencySlots != cc.DegradedLatencySlots {
			t.Fatalf("dead set %04b: contract %+v (%v), negotiated %+v", set, got, err, cc)
		}
		worst, homes := 0, c.Assignment()
		for _, f := range replicated {
			name := f.Name
			if len(homes[name]) == 0 {
				t.Fatalf("dead set %04b: %q has no live home", set, name)
			}
			for _, ch := range homes[name] {
				cycle := cycleOnAir(t, c.Station(ch))
				for start := range cycle {
					got, ok := worstRetrieval(onAir(cycle), 1, start, cc.DegradedLatencySlots, name, f.Blocks, f.Faults)
					if !ok {
						t.Fatalf("dead set %04b: %q on channel %d from slot %d with %d faults: not within %d slots",
							set, name, ch, start, f.Faults, cc.DegradedLatencySlots)
					}
					worst = max(worst, got.slots)
				}
			}
		}
		t.Logf("dead set %04b: contract %d/%d slots kept, oracle worst case %d", set, cc.WorstLatencySlots, cc.DegradedLatencySlots, worst)
	}
}
