package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pinbcast"
)

// The traced run wraps the seams bdload itself owns — the Sink the
// station pumps into, the Source each receiver reads from, and the
// request loop — and records spans there; nothing inside the program is
// instrumented. Every slot is counted and timed (two clock reads per
// seam per slot: that cost is what trace.overhead_ratio reports), but
// only one slot in sampleEvery leaves a span, plus every retrieval and
// every control operation.
const sampleEvery = 64

// span is one traced interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is the span that caused this one (0 for none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer hands out span identifiers and collects the per-goroutine
// recorders of one traced run.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu   sync.Mutex
	recs []*recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// recorder is the span buffer of one goroutine; it is not safe for
// concurrent use, which is what keeps recording lock-free.
type recorder struct {
	tr    *tracer
	spans []span
}

// recorder returns a fresh recorder owned by the calling goroutine.
func (tr *tracer) recorder() *recorder {
	r := &recorder{tr: tr}
	tr.mu.Lock()
	tr.recs = append(tr.recs, r)
	tr.mu.Unlock()
	return r
}

// add records a finished span under a fresh identifier.
func (r *recorder) add(name string, parent uint64, start, end time.Time) {
	r.addWithID(r.reserve(), name, parent, start, end)
}

// addWithID records a span whose identifier was reserved up front, so
// that children could name it as their parent while it was still open.
func (r *recorder) addWithID(id uint64, name string, parent uint64, start, end time.Time) {
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.tr.epoch).Nanoseconds(), End: end.Sub(r.tr.epoch).Nanoseconds(),
	})
}

// reserve returns an identifier for a span that is about to open.
func (r *recorder) reserve() uint64 { return r.tr.nextID.Add(1) }

// write dumps every recorded span and the given counts to
// dir/<name>.jsonl: one JSON object per line, spans first, then one
// {"count": name, "value": v} object per counter.
func (tr *tracer) write(dir, name string, counts map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close() // error paths only; the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, r := range tr.recs {
		for i := range r.spans {
			if err := enc.Encode(&r.spans[i]); err != nil {
				tr.mu.Unlock()
				return "", err
			}
		}
	}
	tr.mu.Unlock()
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		if err := enc.Encode(map[string]any{"count": k, "value": counts[k]}); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing trace: %w", err)
	}
	return path, nil
}

// tracedSource wraps a receiver's Source. It is driven by exactly one
// goroutine (the request loop for a Receiver, one channel driver for a
// MultiTuner); parent is written by the request loop and read here, so
// it is atomic for the MultiTuner case.
type tracedSource struct {
	inner  pinbcast.Source
	rec    *recorder
	parent atomic.Uint64 // the open retrieval span

	calls  uint64
	inNext time.Duration // wall time spent inside inner.Next
	last   time.Duration // duration of the most recent Next

	// gaps, when non-nil, keeps every inter-arrival time in seconds —
	// only the paced workload asks for it (a saturated one would keep
	// millions).
	gaps    []float64
	arrived time.Time
}

func (s *tracedSource) Next() (pinbcast.Slot, error) {
	t0 := time.Now()
	slot, err := s.inner.Next()
	t1 := time.Now()
	s.last = t1.Sub(t0)
	s.inNext += s.last
	s.calls++
	if s.gaps != nil && err == nil {
		if !s.arrived.IsZero() {
			s.gaps = append(s.gaps, t1.Sub(s.arrived).Seconds())
		}
		s.arrived = t1
	}
	if s.calls%sampleEvery == 0 {
		s.rec.add("source.next", s.parent.Load(), t0, t1)
	}
	return slot, err
}

func (s *tracedSource) Close() error { return s.inner.Close() }

// tracedSink wraps the Sink the station pumps into. Pump calls Send
// from one goroutine, so the time between one Send returning and the
// next starting is the time Pump spent blocked on the slot channel —
// the serve loop's share of the pipeline.
type tracedSink struct {
	inner pinbcast.Sink
	rec   *recorder
	// depth, when non-nil, is read after every Send to track the deepest
	// subscriber queue the fan-out reported.
	depth func() int64

	calls    uint64
	inSend   time.Duration
	waiting  time.Duration // between Sends: blocked on the slot channel
	slow     uint64        // Sends longer than backpressureAfter
	maxDepth int64
	lastEnd  time.Time
}

// backpressureAfter is the Send duration past which the call is counted
// as having waited on a full subscriber queue: an uncontended Send is a
// lock, a non-blocking enqueue per subscriber and two atomic stores.
const backpressureAfter = 10 * time.Microsecond

func (s *tracedSink) Send(slot pinbcast.Slot) error {
	t0 := time.Now()
	if !s.lastEnd.IsZero() {
		s.waiting += t0.Sub(s.lastEnd)
	}
	err := s.inner.Send(slot)
	t1 := time.Now()
	d := t1.Sub(t0)
	s.inSend += d
	s.calls++
	if d > backpressureAfter {
		s.slow++
	}
	if s.depth != nil {
		s.maxDepth = max(s.maxDepth, s.depth())
	}
	if s.calls%sampleEvery == 0 {
		s.rec.add("fanout.send", 0, t0, t1)
	}
	s.lastEnd = t1
	return err
}

func (s *tracedSink) Close() error { return s.inner.Close() }
