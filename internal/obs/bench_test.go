package obs

import (
	"testing"

	"pinbcast/internal/zeroalloc"
)

// The hot-path ops must stay at 0 allocs/op: each benchmark fails by
// itself if an allocation sneaks in.

func BenchmarkObsCounterInc(b *testing.B) {
	c := NewRegistry().Counter("pin_bench_total", "bench")
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	check()
}

func BenchmarkObsGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("pin_bench_level", "bench")
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
	check()
}

func BenchmarkObsGaugeAdd(b *testing.B) {
	g := NewRegistry().Gauge("pin_bench_level", "bench")
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
	check()
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("pin_bench_lat", "bench")
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
	check()
}

func BenchmarkObsRingEmit(b *testing.B) {
	r := NewRing(DefaultRingSize)
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		r.Emit(SlotServed, 0, uint32(i), uint8(i), uint64(i), 0)
	}
	check()
}

func BenchmarkObsCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("pin_bench_par_total", "bench")
	check := zeroalloc.Start(b)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	check()
}
