// Package obs is the observability plane: a stdlib-only, typed
// registry of atomic counters, gauges and fixed-bucket histograms, a
// lock-free ring buffer of slot trace events, and a hand-rolled
// Prometheus text-format exposition encoder (Registry.WriteTo), the
// registry's one exposition. Every hot-path operation — Counter.Inc,
// Gauge.Set, Histogram.Observe, Ring.Emit — is a handful of atomic
// words: no locks, no allocation, no formatting.
// Locks and allocation exist only at registration and scrape time.
//
// The package-level Default registry and Trace ring are what the
// pinbcast planes (Station.Serve, transport.Fanout, Cluster,
// MultiTuner, Receiver) instrument against; cmd/bdserved serves both
// over HTTP (NewOpsMux). Instruments are
// get-or-create by (name, label set), so every Station in a process
// shares one aggregated family while labeled series (per-channel
// cluster gauges) stay distinct.
//
// Metric and label names follow the Prometheus data model; invalid
// names and mismatched re-registration (one name, two types) panic at
// registration time — they are programming errors on cold paths.
package obs

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, a key="value" pair. Series of one
// family are distinguished by their full label sets.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing counter. The value word is
// padded to a cache line so independently owned counters never share
// one (false sharing would serialize unrelated hot loops).
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
//
//pinlint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//pinlint:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
//
//pinlint:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to subtract).
//
//pinlint:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of histogram buckets: one per possible
// bits.Len64 of the observed value. Bucket 0 holds zeros; bucket i
// holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a fixed-bucket histogram over power-of-two boundaries:
// Observe(v) lands in the bucket indexed by bits.Len64(v), so the
// per-observation cost is two atomic adds and no branch on bucket
// tables. The bucket array is contiguous behind a padded header —
// observations of one histogram are usually made by one goroutine, so
// padding per instrument (not per bucket) is the false-sharing seam
// that matters.
type Histogram struct {
	sum   atomic.Uint64
	count atomic.Uint64
	_     [48]byte
	b     [histBuckets]atomic.Uint64
}

// Observe records one value.
//
//pinlint:hotpath
func (h *Histogram) Observe(v uint64) {
	h.b[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Bucket returns the count of observations v with bits.Len64(v) == i:
// bucket 0 counts zeros, bucket i ≥ 1 counts [2^(i-1), 2^i).
func (h *Histogram) Bucket(i int) uint64 { return h.b[i].Load() }

// metricKind discriminates a family's instrument type.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one (family, label set) instrument.
type series struct {
	sig string // exposition fragment: `{k="v",...}` or ""
	c   *Counter
	g   *Gauge
	h   *Histogram
}

// family groups the series of one metric name.
type family struct {
	name, help string
	kind       metricKind
	series     map[string]*series // by label signature
}

// Registry is a typed metric registry. Registration (the Counter,
// Gauge, Histogram methods) takes a lock and may allocate; the
// returned instruments are lock-free and allocation-free to operate.
// A Registry is safe for concurrent use, including scraping (WriteTo,
// its one encoder) while instruments are updated.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// std is the process-wide default registry the pinbcast planes
// instrument against.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Counter returns the counter of the named family with the given
// labels, creating family and series as needed. Re-registering an
// existing (name, labels) pair returns the same instrument; using one
// name for two instrument types panics.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(kindCounter, name, help, labels)
	return s.c
}

// Gauge returns the gauge of the named family with the given labels,
// creating family and series as needed.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(kindGauge, name, help, labels)
	return s.g
}

// Histogram returns the histogram of the named family with the given
// labels, creating family and series as needed.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.lookup(kindHistogram, name, help, labels)
	return s.h
}

// lookup get-or-creates a series under the registry lock.
func (r *Registry) lookup(kind metricKind, name, help string, labels []Label) *series {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labels {
		if !validLabelKey(l.Key) {
			panic("obs: invalid label key " + l.Key + " on metric " + name)
		}
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	sig := signature(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " registered as " + f.kind.String() + ", requested " + kind.String())
	}
	s := f.series[sig]
	if s == nil {
		s = &series{sig: sig}
		switch kind {
		case kindCounter:
			s.c = new(Counter)
		case kindGauge:
			s.g = new(Gauge)
		case kindHistogram:
			s.h = new(Histogram)
		}
		f.series[sig] = s
	}
	return s
}

// signature renders a sorted label set as its exposition fragment —
// `{key="value",...}` with values escaped — which doubles as the
// series identity.
func signature(sorted []Label) string {
	if len(sorted) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper and helpEscaper escape per the Prometheus text format:
// a label value's backslash, double quote and newline, a HELP text's
// backslash and newline.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// validName reports whether name matches the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelKey reports whether key matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(key string) bool {
	if key == "" {
		return false
	}
	for i, r := range key {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
