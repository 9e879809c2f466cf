package pinbcast

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"testing"
)

// failoverCluster shards sixteen files of mixed width and latency over
// four channels, the two hottest on two each, every station sized by
// Equation 2 on its own files: each channel's orphans have more than
// one survivor to land on.
func failoverCluster(t *testing.T, opts ...ClusterOption) *Cluster {
	t.Helper()
	files := make([]FileSpec, 16)
	for i := range files {
		files[i] = FileSpec{Name: fmt.Sprintf("f%02d", i), Blocks: 2 + i%4, Latency: 20 + 7*i, Faults: 1}
	}
	c, err := NewCluster(append([]ClusterOption{
		WithChannels(4), WithReplicas(2), WithReplicateHottest(2),
		WithClusterFiles(files...), WithClusterContents(CatalogContents(files, 16, 1)),
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
// whose build a layout refuses takes none of its orphans; they go to the
// next survivor, and are lost only when no survivor takes them.
func TestFailChannelBuildsOncePerSurvivor(t *testing.T) {
	for _, paced := range []bool{false, true} {
		var opts []ClusterOption
		if paced {
			opts = append(opts, WithStationOptions(WithSlotInterval(pacerTestInterval)))
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
				if n := c.Station(ch).latest().srv.Encoded(); took[ch] && n != 0 {
					t.Errorf("paced %v, channel %d failed: survivor %d encoded %d files, the failed channel sent them all whole", paced, failed, ch, n)
				}
			}
		}
	}

	// h0 lands on channel 0, h1 on channel 1 and the six cold files on
	// channel 2; then the layout refuses more than limit files.
	files := []FileSpec{{Name: "h0", Blocks: 4, Latency: 10}, {Name: "h1", Blocks: 2, Latency: 10}}
	for i := 0; i < 6; i++ {
		files = append(files, FileSpec{Name: fmt.Sprintf("c%d", i), Blocks: 1, Latency: 100})
	}
	limit := len(files)
	capped := layoutFunc{"capped", func(files []FileSpec, bw int) (*Program, error) {
		if len(files) > limit {
			return nil, fmt.Errorf("%d files, the layout takes %d: %w", len(files), limit, ErrAdmission)
		}
		return pinwheelLayout{}.Plan(files, bw)
	}}
	for _, tc := range []struct {
		limit int
		want  map[string]int // Readmitted; nil: h1 is lost
	}{
		{6, map[string]int{"h1": 0}}, // channel 2 has the headroom and is refused a seventh file
		{1, nil},
	} {
		c, err := NewCluster(WithChannels(3), WithReplicas(1), WithClusterBandwidth(2),
			WithClusterFiles(files...), WithClusterContents(CatalogContents(files, 16, 1)),
			WithStationOptions(WithLayout(capped)))
		if err != nil {
			t.Fatal(err)
		}
		if h := c.Assignment(); h["h0"][0] != 0 || h["h1"][0] != 1 || len(c.Station(2).Files()) != 6 {
			t.Fatalf("the catalogue is sharded %v", h)
		}
		limit = tc.limit
		gens := []int{c.Station(0).Generation(), c.Station(2).Generation()}
		rep, err := c.FailChannel(1)
		limit = len(files)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(rep.Readmitted, tc.want) || (tc.want == nil) != errors.Is(rep.Lost["h1"], ErrDegraded) {
			t.Fatalf("limit %d: re-admitted %v, lost %v; want %v", tc.limit, rep.Readmitted, rep.Lost, tc.want)
		}
		if got := c.Station(2).Generation(); got != gens[1] || len(c.Station(2).latest().files) != 6 {
			t.Errorf("limit %d: the refused survivor moved from generation %d to %d", tc.limit, gens[1], got)
		}
		if got, want := c.Station(0).Generation(), gens[0]+len(tc.want); got != want {
			t.Errorf("limit %d: channel 0 is at generation %d, want %d", tc.limit, got, want)
		}
	}
}
