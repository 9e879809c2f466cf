package pinbcast_test

// Cluster-subsystem benchmarks: the multi-channel serve path and the
// MultiTuner retrieval loop.

import (
	"context"
	"sync"
	"testing"

	"pinbcast"
	"pinbcast/internal/zeroalloc"
)

// benchClusterFiles is a nine-file catalog sharded three ways with the
// hottest three files replicated twice.
func benchClusterFiles() []pinbcast.FileSpec {
	return []pinbcast.FileSpec{
		{Name: "hot-a", Blocks: 2, Latency: 8, Faults: 1},
		{Name: "hot-b", Blocks: 2, Latency: 8, Faults: 1},
		{Name: "hot-c", Blocks: 2, Latency: 10, Faults: 1},
		{Name: "warm-a", Blocks: 3, Latency: 30, Faults: 1},
		{Name: "warm-b", Blocks: 3, Latency: 30, Faults: 1},
		{Name: "cool-a", Blocks: 4, Latency: 60, Faults: 1},
		{Name: "cool-b", Blocks: 4, Latency: 60, Faults: 1},
		{Name: "cool-c", Blocks: 4, Latency: 80, Faults: 1},
		{Name: "cold", Blocks: 6, Latency: 120, Faults: 1},
	}
}

func benchCluster(b *testing.B) *pinbcast.Cluster {
	b.Helper()
	files := benchClusterFiles()
	c, err := pinbcast.NewCluster(
		pinbcast.WithChannels(3),
		pinbcast.WithReplicas(2),
		pinbcast.WithReplicateHottest(3),
		pinbcast.WithBandwidth(2),
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(pinbcast.CatalogContents(files, 256, 1)),
		pinbcast.WithSlotBuffer(256),
	)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkClusterServe measures the aggregate multi-channel serve
// path: K stations streaming concurrently, b.N slots drained in total.
func BenchmarkClusterServe(b *testing.B) {
	c := benchCluster(b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := c.Serve(ctx)
	if err != nil {
		b.Fatal(err)
	}
	per := b.N / len(slots)
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, ch := range slots {
		wg.Add(1)
		go func(ch <-chan pinbcast.Slot) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				<-ch
			}
		}(ch)
	}
	wg.Wait()
	b.StopTimer()
}

// BenchmarkMultiTuner measures the steady-state retrieval loop: each
// iteration requests one replicated file through the fetch plan, runs
// the tuner until reconstruction, drains the result with RunInto and
// hands its buffer back with Recycle. One tuner serves every
// iteration — with the drain/recycle pair nothing accumulates, and the
// loop is allocation-free once the pools are warm, which the benchmark
// checks itself.
func BenchmarkMultiTuner(b *testing.B) {
	c := benchCluster(b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := c.Serve(ctx)
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]pinbcast.Source, len(slots))
	for i, ch := range slots {
		loop := &pinbcast.LoopReplay{}
		for len(loop.Slots) < 512 {
			loop.Slots = append(loop.Slots, <-ch)
		}
		srcs[i] = loop
	}
	cancel()
	mt, err := pinbcast.NewMultiTuner(srcs,
		pinbcast.WithDirectory(c.Directory()),
		pinbcast.WithTunerHomes(c.FetchPlan()),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer mt.Close()
	var out []pinbcast.ClusterResult
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		if err := mt.Request("hot-a", 0); err != nil { // follows the plan of WithTunerHomes
			b.Fatal(err)
		}
		out, err = mt.RunInto(context.Background(), out[:0])
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 1 || !out[0].Completed {
			b.Fatalf("iteration %d: unexpected results %+v", i, out)
		}
		mt.Recycle(out[0])
	}
	check()
	if got := mt.Metrics().Completed; got != b.N {
		b.Fatalf("completed %d of %d retrievals", got, b.N)
	}
}
