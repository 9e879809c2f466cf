package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pinbcast"
)

// resubscribeEvery is how many retrievals a Receiver serves before the
// request loop replaces it with a fresh Subscribe on the same Source.
// Receiver.Results has no drain: every completed request stays in the
// receiver's history (with its Data pointer), so an unbounded
// closed-loop run would grow without limit. Finding recorded in
// README.md.
const resubscribeEvery = 4096

// retriever is one closed-loop broadcast client: it asks for a file,
// listens until the file is rebuilt, and only then asks for the next —
// a broadcast client cannot speed the air up.
type retriever interface {
	// retrieve blocks until the named file has been reconstructed (or
	// the request failed) and returns the protocol's own record of it.
	retrieve(file string, deadline int) (pinbcast.Result, error)
	// recycle hands a verified result's buffer back for reuse.
	recycle(pinbcast.Result)
	// tally returns the client's cumulative counters.
	tally() tally
	// traces returns the client's traced sources (none when tracing is
	// off).
	traces() []*tracedSource
	// close releases the client's sources.
	close() error
}

// tally is a snapshot of what a client has consumed so far.
type tally struct {
	slots     []int // per connection
	heard     int   // non-idle slots listened to while a request was pending
	corrupted int   // of those, dropped for checksum failure
}

// receiverClient drives one pinbcast.Receiver over one Source.
type receiverClient struct {
	src  pinbcast.Source
	opts []pinbcast.ReceiverOption
	rcv  *pinbcast.Receiver
	ts   *tracedSource   // nil when tracing is off
	tss  []*tracedSource // ts as the list traces returns

	served int                      // retrievals by the current receiver
	prior  pinbcast.ReceiverMetrics // counters of receivers already replaced

	// traced run only
	steps      uint64
	completeNs []float64 // Steps that finished a file, outside Source.Next
}

func newReceiverClient(src pinbcast.Source, ts *tracedSource, opts ...pinbcast.ReceiverOption) (*receiverClient, error) {
	c := &receiverClient{src: src, opts: opts, ts: ts}
	if ts != nil {
		c.src = ts
		c.tss = []*tracedSource{ts}
	}
	return c, c.subscribe()
}

func (c *receiverClient) subscribe() error {
	if c.rcv != nil {
		c.prior = c.metrics()
	}
	rcv, err := pinbcast.Subscribe(c.src, c.opts...)
	if err != nil {
		return fmt.Errorf("subscribing receiver: %w", err)
	}
	c.rcv, c.served = rcv, 0
	return nil
}

func (c *receiverClient) retrieve(file string, deadline int) (pinbcast.Result, error) {
	if c.served == resubscribeEvery {
		if err := c.subscribe(); err != nil {
			return pinbcast.Result{}, err
		}
	}
	c.served++
	if err := c.rcv.Request(file, deadline); err != nil {
		return pinbcast.Result{}, err
	}
	for {
		var t0 time.Time
		if c.ts != nil {
			t0 = time.Now()
		}
		done, err := c.rcv.Step()
		if err != nil {
			return pinbcast.Result{}, fmt.Errorf("receiving %q: %w", file, err)
		}
		if c.ts != nil {
			t1 := time.Now()
			self := t1.Sub(t0) - c.ts.last
			c.steps++
			if done {
				c.completeNs = append(c.completeNs, float64(self.Nanoseconds()))
				c.ts.rec.add("receiver.complete", c.ts.parent.Load(), t1.Add(-self), t1)
			} else if c.steps%sampleEvery == 0 {
				c.ts.rec.add("receiver.step", c.ts.parent.Load(), t1.Add(-self), t1)
			}
		}
		if done {
			break
		}
	}
	results := c.rcv.Results()
	return results[len(results)-1], nil
}

func (c *receiverClient) recycle(res pinbcast.Result) { c.rcv.Recycle(res) }

// metrics returns the receiver counters summed over every receiver this
// client has subscribed.
func (c *receiverClient) metrics() pinbcast.ReceiverMetrics {
	m := c.rcv.Metrics()
	m.Slots += c.prior.Slots
	m.Blocks += c.prior.Blocks
	m.Corrupted += c.prior.Corrupted
	return m
}

func (c *receiverClient) tally() tally {
	m := c.metrics()
	return tally{slots: []int{m.Slots}, heard: m.Blocks + m.Corrupted, corrupted: m.Corrupted}
}

func (c *receiverClient) traces() []*tracedSource { return c.tss }

func (c *receiverClient) close() error { return c.src.Close() }

// tunerClient drives one pinbcast.MultiTuner in scan mode: every live
// channel collects the request and the first to complete wins.
type tunerClient struct {
	ctx    context.Context
	cancel context.CancelFunc
	mt     *pinbcast.MultiTuner
	ts     []*tracedSource
	dst    []pinbcast.ClusterResult

	// mu orders close against a retrieval in flight: MultiTuner.Close
	// releases the parked channel drivers, and a Run started after that
	// wakes nobody and waits for them forever (README.md, findings).
	mu     sync.Mutex
	closed bool
}

func newTunerClient(mt *pinbcast.MultiTuner, ts []*tracedSource) *tunerClient {
	ctx, cancel := context.WithCancel(context.Background())
	return &tunerClient{ctx: ctx, cancel: cancel, mt: mt, ts: ts}
}

func (c *tunerClient) retrieve(file string, deadline int) (pinbcast.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return pinbcast.Result{}, errors.New("tuner closed")
	}
	if err := c.mt.Request(file, deadline); err != nil {
		return pinbcast.Result{}, err
	}
	var err error
	c.dst, err = c.mt.RunInto(c.ctx, c.dst[:0])
	if err != nil {
		return pinbcast.Result{}, fmt.Errorf("retrieving %q: %w", file, err)
	}
	if len(c.dst) != 1 {
		return pinbcast.Result{}, fmt.Errorf("retrieving %q: %d results for one request", file, len(c.dst))
	}
	return c.dst[0].Result, nil
}

func (c *tunerClient) recycle(pinbcast.Result) {
	if len(c.dst) == 1 {
		c.mt.Recycle(c.dst[0])
	}
}

func (c *tunerClient) tally() tally {
	m := c.mt.Metrics()
	heard := 0
	for _, n := range m.SlotsPerChannel {
		heard += n
	}
	// A MultiTuner does not count idle or corrupted slots apart.
	return tally{slots: m.SlotsPerChannel, heard: heard, corrupted: m.Injected}
}

func (c *tunerClient) traces() []*tracedSource { return c.ts }

// close cancels the retrieval in flight, waits for it to return, and
// only then closes the tuner.
func (c *tunerClient) close() error {
	c.cancel()
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.mt.Close()
}

// Run phases, advanced by the runner and observed by every request loop
// between retrievals.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// fault names what was wrong with a retrieval.
type fault uint8

const (
	verified   fault = iota // right bytes, inside the window
	late                    // right bytes, slot latency past the window
	failed                  // the protocol gave the request up
	wrongBytes              // reconstructed bytes differ from the generated contents
)

func (f fault) String() string {
	return [...]string{"verified", "late", "failed", "wrong-bytes"}[f]
}

// sample is one retrieval of the measured window. It is kept small:
// a saturated run keeps over a hundred thousand, in the process whose
// peak memory is itself a metric.
type sample struct {
	wall     time.Duration // request → verified bytes
	latency  int32         // slots from request activation to reconstruction
	deadline int32         // B·Tᵢ slots, computed from the spec
	bytes    int32
	blocks   int16 // distinct blocks the reconstruction used
	swaps    uint8 // generation swaps the retrieval straddled
	fault    fault
}

// requestLoop is one closed-loop client's run: files in a seeded
// permutation, one request outstanding, every result checked against
// the generated contents.
type requestLoop struct {
	cl       retriever
	files    []pinbcast.FileSpec
	contents map[string][]byte
	deadline map[string]int // B·Tᵢ per file
	rng      *rand.Rand
	phase    *atomic.Int32
	rec      *recorder // nil when tracing is off

	segment time.Duration // how often the loop marks its progress while measuring
	// generation, when non-nil, reads the newest program generation seen
	// on the air: a retrieval that straddles k generation swaps is owed
	// one window per generation it touched, (k+1)·B·Tᵢ.
	generation func() int64

	samples []sample
	marks   []mark        // the measured window's edges and every segment boundary between
	next0   time.Duration // time inside Source.Next at the window's edges (traced)
	next1   time.Duration
}

// mark is the client's cumulative counters at one instant; the slot
// rate is reported as the median over the segments between marks.
type mark struct {
	at    time.Time
	tally tally
}

func (l *requestLoop) mark(at time.Time) {
	l.marks = append(l.marks, mark{at: at, tally: l.cl.tally()})
}

// window returns the first and last mark: the loop's own measured
// window.
func (l *requestLoop) window() (first, last mark) { return l.marks[0], l.marks[len(l.marks)-1] }

// classify recomputes the verdict on one result from the specification:
// the bytes must equal the generated contents and the slot latency must
// fit the window B·Tᵢ. Result.DeadlineMet is deliberately not consulted.
func classify(res pinbcast.Result, want []byte, deadline int) fault {
	switch {
	case !res.Completed:
		return failed
	case !bytes.Equal(res.Data, want):
		return wrongBytes
	case res.Latency > deadline:
		return late
	}
	return verified
}

// inNext sums the time the loop's traced sources have spent inside
// Source.Next. The sources' owners are idle whenever the loop is
// between retrievals, which is the only time this is called.
func (l *requestLoop) inNext() time.Duration {
	var d time.Duration
	for _, ts := range l.cl.traces() {
		d += ts.inNext
	}
	return d
}

// run retrieves until the phase reaches phaseStop, sends exactly one
// value on done — nil once its window is recorded, else what went wrong
// — and then keeps retrieving, unsampled, until the system is closed
// under it. The tail matters: the receivers pace the broadcast, so a
// client that stopped listening would stall every other client's last
// retrieval behind its full queue.
//
// Samples are kept for the measured phase only; the loop's window runs
// from the first to the last phase change it observed, so the marks'
// slot counts and times belong to exactly the retrievals sampled.
func (l *requestLoop) run(done chan<- error) {
	cur := phaseWarm
	order := l.rng.Perm(len(l.files))
	next := 0
	for {
		if p := l.phase.Load(); p != cur {
			now := time.Now()
			if cur == phaseWarm {
				l.samples = l.samples[:0]
				l.next0 = l.inNext()
				l.mark(now)
			}
			if p == phaseStop {
				l.next1 = l.inNext()
				l.mark(now)
				done <- nil
			}
			cur = p
		}
		if next == len(order) {
			l.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			next = 0
		}
		f := l.files[order[next]]
		next++

		var id uint64
		if l.rec != nil && cur != phaseStop {
			id = l.rec.reserve()
			for _, ts := range l.cl.traces() {
				ts.parent.Store(id)
			}
		}
		var gen0 int64
		if l.generation != nil {
			gen0 = l.generation()
		}
		t0 := time.Now()
		res, err := l.cl.retrieve(f.Name, l.deadline[f.Name])
		if cur == phaseStop {
			if err != nil || !res.Completed {
				return // the system was closed: the tail is over
			}
			l.cl.recycle(res)
			continue
		}
		if err != nil {
			done <- err
			return
		}
		swaps := 0
		if l.generation != nil {
			swaps = int(l.generation() - gen0)
		}
		verdict := classify(res, l.contents[f.Name], (1+swaps)*l.deadline[f.Name])
		t1 := time.Now()
		if l.rec != nil {
			l.rec.addWithID(id, "retrieval", 0, t0, t1)
		}
		if cur == phaseMeasure {
			l.samples = append(l.samples, sample{
				wall: t1.Sub(t0), latency: int32(res.Latency), deadline: int32(l.deadline[f.Name]),
				bytes: int32(len(res.Data)), blocks: int16(res.BlocksUsed), swaps: uint8(min(swaps, 255)), fault: verdict,
			})
			if t1.Sub(l.marks[len(l.marks)-1].at) >= l.segment {
				l.mark(t1)
			}
		}
		l.cl.recycle(res)
	}
}
