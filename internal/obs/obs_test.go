package obs

import (
	"math"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_slots_total", "slots")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("t_slots_total", "slots"); again != c {
		t.Fatal("re-registering the same counter returned a new instrument")
	}

	g := r.Gauge("t_depth", "depth")
	g.Set(7)
	g.Add(-10)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_hops_total", "hops", Label{"channel", "0"})
	b := r.Counter("t_hops_total", "hops", Label{"channel", "1"})
	if a == b {
		t.Fatal("different label values returned the same series")
	}
	// Label order must not matter for identity.
	x := r.Gauge("t_up", "up", Label{"channel", "0"}, Label{"shard", "a"})
	y := r.Gauge("t_up", "up", Label{"shard", "a"}, Label{"channel", "0"})
	if x != y {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_thing", "thing")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two kinds did not panic")
		}
	}()
	r.Gauge("t_thing", "thing")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("0bad-name", "nope")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat_slots", "latency")
	for _, v := range []uint64{0, 1, 1, 3, 1000, math.MaxUint64} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	var wantSum uint64 = math.MaxUint64
	wantSum += 1005 // wraps, as the histogram's sum word does
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
	want := map[int]uint64{0: 1, 1: 2, 2: 1, 10: 1, 64: 1}
	for i := 0; i < histBuckets; i++ {
		if got := h.Bucket(i); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestDefaultRegistryAndTrace(t *testing.T) {
	if Default() == nil || Default() != Default() {
		t.Fatal("Default registry is not a stable singleton")
	}
	if Trace() == nil || Trace() != Trace() {
		t.Fatal("Trace ring is not a stable singleton")
	}
	if got := int(Trace().mask) + 1; got != DefaultRingSize {
		t.Fatalf("default ring capacity = %d, want %d", got, DefaultRingSize)
	}
}
