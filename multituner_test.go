package pinbcast

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinbcast/internal/workload"
)

// clusterAir serves the first n slots of every channel of the cluster.
func clusterAir(t *testing.T, c *Cluster, n int) [][]Slot {
	airs := make([][]Slot, c.Channels())
	for ch := range airs {
		airs[ch] = air(t, c.Station(ch), n)
	}
	return airs
}

func TestMultiTunerHopOnEOF(t *testing.T) {
	c := testCluster(t)
	recs := clusterAir(t, c, 256)
	plan := c.FetchPlan()

	// hot-a is replicated; its cheapest-first plan starts on a channel
	// whose replay ends after one slot (too few for the M=2 threshold),
	// so the tuner must hop to the replica and still complete.
	first := plan["hot-a"][0]
	srcs := make([]Source, c.Channels())
	for i, rec := range recs {
		if i == first {
			srcs[i] = &LoopReplay{Slots: rec, End: 1}
		} else {
			srcs[i] = &LoopReplay{Slots: rec}
		}
	}
	mt, err := NewMultiTuner(srcs,
		WithDirectory(c.Directory()),
		WithTunerHomes(map[string][]int{"hot-a": plan["hot-a"]}),
		WithRequest("hot-a", 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	results, err := mt.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	res := results[0]
	if !res.Completed || res.File != "hot-a" {
		t.Fatalf("hop retrieval failed: %+v", res)
	}
	if res.Channel == first {
		t.Fatalf("served by the truncated channel %d", first)
	}
	m := mt.Metrics()
	if m.Hops < 1 {
		t.Fatalf("expected a hop, metrics %+v", m)
	}
	if !tunerDone(mt) {
		t.Fatal("tuner not done after run")
	}
}

func TestMultiTunerScanModeAndCancel(t *testing.T) {
	c := testCluster(t)
	recs := clusterAir(t, c, 256)
	srcs := make([]Source, len(recs))
	for i, rec := range recs {
		srcs[i] = &LoopReplay{Slots: rec, End: len(rec)}
	}
	// No fetch plan at all: every request scans all channels; the
	// winning channel records the result and the losers are cancelled.
	mt, err := NewMultiTuner(srcs, WithDirectory(c.Directory()))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	for _, name := range []string{"hot-a", "warm", "cold"} {
		if err := mt.Request(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := mt.Request("hot-a", 0); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate request: %v", err)
	}
	results, err := mt.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	for _, res := range results {
		if !res.Completed {
			t.Fatalf("scan retrieval failed: %+v", res)
		}
	}
	m := mt.Metrics()
	if m.Completed != 3 || m.Failed != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestMultiTunerValidation(t *testing.T) {
	if _, err := NewMultiTuner(nil); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("no sources: %v", err)
	}
	rec := &Recording{}
	if _, err := NewMultiTuner([]Source{rec.Source()}, WithMissThreshold(0)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("zero threshold: %v", err)
	}
	if _, err := NewMultiTuner([]Source{rec.Source()}, WithReceiverFaults(nil, nil)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("two fault models for one channel: %v", err)
	}
	if _, err := NewMultiTuner([]Source{rec.Source(), nil}, WithReceiverFaults(SlotFaults(1))); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("one fault model for two channels: %v", err)
	}
	mt, err := NewMultiTuner([]Source{rec.Source()})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Request("", 0); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty file: %v", err)
	}
	if err := mt.requestVia("x", 0, []int{7}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("out-of-range plan: %v", err)
	}
}

// TestMultiTunerMatchesReceiver pins the single retrieval engine: a
// one-channel MultiTuner and a plain Receiver replaying the same
// recording under the same adversary must agree on every outcome and
// every counter, because both run Receiver.observe.
func TestMultiTunerMatchesReceiver(t *testing.T) {
	c := testCluster(t)
	rec := clusterAir(t, c, 256)[0]
	// The first two files channel 0 carries, and an adversary that
	// destroys the first and third transmission of each.
	var files []string
	var kill []int
	sent := map[string]int{}
	for _, s := range rec {
		if s.File == "" {
			continue
		}
		if sent[s.File] == 0 && len(files) < 2 {
			files = append(files, s.File)
		}
		sent[s.File]++
		wanted := len(files) > 0 && s.File == files[0] || len(files) > 1 && s.File == files[1]
		if wanted && (sent[s.File] == 1 || sent[s.File] == 3) {
			kill = append(kill, s.T)
		}
	}
	if len(files) != 2 || len(kill) != 4 {
		t.Fatalf("recording too thin: files %v, kill %v", files, kill)
	}
	reqs := []Request{{File: files[0], Deadline: 40}, {File: files[1], Deadline: 3}}

	rcv, err := Subscribe(&LoopReplay{Slots: rec, End: len(rec)},
		WithDirectory(c.Directory()),
		WithReceiverFaults(SlotFaults(kill...)),
		withRequests(reqs...),
	)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rcv.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	mt, err := NewMultiTuner([]Source{&LoopReplay{Slots: rec, End: len(rec)}},
		WithDirectory(c.Directory()),
		WithReceiverFaults(SlotFaults(kill...)),
		withRequests(reqs...),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	got, err := mt.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) || len(want) != 2 {
		t.Fatalf("tuner %d results, receiver %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Channel != 0 || !reflect.DeepEqual(got[i].Result, want[i]) {
			t.Fatalf("result %d:\n tuner    %+v\n receiver %+v", i, got[i], want[i])
		}
		if !want[i].Completed || want[i].Corrupted == 0 {
			t.Fatalf("result %d did not exercise the adversary: %+v", i, want[i])
		}
	}
	rm, tm := rcv.Metrics(), mt.Metrics()
	if tm.SlotsPerChannel[0] != rm.Slots || tm.Injected != rm.Injected || rm.Injected == 0 {
		t.Fatalf("counters diverge: tuner %+v, receiver %+v", tm, rm)
	}
}

// TestMultiTunerRunAfterClose: a run on a closed tuner must return at
// once with its requests flushed as failures on Channel -1, whether or
// not the channel drivers were ever started.
func TestMultiTunerRunAfterClose(t *testing.T) {
	c := testCluster(t)
	recs := clusterAir(t, c, 256)
	for _, started := range []bool{true, false} {
		srcs := make([]Source, len(recs))
		for i, rec := range recs {
			srcs[i] = &LoopReplay{Slots: rec}
		}
		mt, err := NewMultiTuner(srcs, WithDirectory(c.Directory()))
		if err != nil {
			t.Fatal(err)
		}
		if started {
			if err := mt.Request("hot-a", 0); err != nil {
				t.Fatal(err)
			}
			if res, err := mt.RunInto(context.Background(), nil); err != nil || len(res) != 1 || !res[0].Completed {
				t.Fatalf("run before Close: %+v, %v", res, err)
			}
		}
		if err := mt.Close(); err != nil {
			t.Fatal(err)
		}
		if err := mt.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}

		type outcome struct {
			res []ClusterResult
			err error
		}
		for i := 0; i < 2; i++ {
			if err := mt.Request("warm", 7); err != nil {
				t.Fatal(err)
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := mt.RunInto(context.Background(), nil)
				done <- outcome{res, err}
			}()
			select {
			case out := <-done:
				if out.err != nil || len(out.res) != 1 {
					t.Fatalf("started=%v run %d after Close: %+v, %v", started, i, out.res, out.err)
				}
				if r := out.res[0]; r.Completed || r.Channel != -1 || r.File != "warm" || r.Deadline != 7 {
					t.Fatalf("started=%v run %d after Close: flushed %+v", started, i, r)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("started=%v: run %d after Close still blocked", started, i)
			}
		}
		if !tunerDone(mt) {
			t.Fatalf("started=%v: requests left pending after the flush", started)
		}
	}
}

// TestMultiTunerFlushRequestOrder: requests a run could not serve are
// flushed in the order they were made, never in map-iteration order.
// The context is cancelled before Run, so no driver reads a slot and
// every request is flushed, on each of 50 fresh tuners.
func TestMultiTunerFlushRequestOrder(t *testing.T) {
	c := testCluster(t)
	recs := clusterAir(t, c, 16)
	plan := c.FetchPlan()
	order := []string{"warm", "hot-b", "cold", "cool-a", "hot-a"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for run := 0; run < 50; run++ {
		srcs := make([]Source, len(recs))
		for i, rec := range recs {
			srcs[i] = &LoopReplay{Slots: rec, End: len(rec)}
		}
		mt, err := NewMultiTuner(srcs, WithDirectory(c.Directory()), WithTunerHomes(plan))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range order {
			if err := mt.Request(name, 0); err != nil {
				t.Fatal(err)
			}
		}
		results, err := mt.RunInto(ctx, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", run, err)
		}
		var got []string
		for _, res := range results {
			if res.Completed || res.Channel != -1 {
				t.Fatalf("run %d: cancelled run produced %+v", run, res)
			}
			got = append(got, res.File)
		}
		if !reflect.DeepEqual(got, order) {
			t.Fatalf("run %d: flushed %v, want request order %v", run, got, order)
		}
		if !tunerDone(mt) {
			t.Fatalf("run %d: still pending %v", run, mt.reqs)
		}
		mt.Close()
	}
}

// TestMultiTunerRequestFollowsHomes: the plan of WithTunerHomes is the
// tuner's, not the constructor's — a Request made after construction
// attaches to the plan's first live channel only, exactly like
// requestVia with that plan, and a file the plan does not name scans
// every live channel.
func TestMultiTunerRequestFollowsHomes(t *testing.T) {
	c := testCluster(t)
	recs := clusterAir(t, c, 16)
	plan := c.FetchPlan()
	hot := plan["hot-a"]
	if len(hot) != 2 {
		t.Fatalf("hot-a plan = %v, want two carriers", hot)
	}
	attached := func(mt *MultiTuner, file string) []int {
		mt.mu.Lock()
		defer mt.mu.Unlock()
		return append([]int(nil), mt.reqs[file].attached...)
	}
	for _, tc := range []struct {
		name string
		dead int // channel whose source is nil (known dead), -1 for none
		want []int
	}{
		{"first carrier live", -1, hot[:1]},
		{"first carrier dead", hot[0], hot[1:]},
	} {
		srcs := make([]Source, len(recs))
		for i, rec := range recs {
			if i != tc.dead {
				srcs[i] = &LoopReplay{Slots: rec, End: len(rec)}
			}
		}
		mt, err := NewMultiTuner(srcs, WithDirectory(c.Directory()),
			WithTunerHomes(map[string][]int{"hot-a": hot}))
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.Request("hot-a", 0); err != nil {
			t.Fatal(err)
		}
		if got := attached(mt, "hot-a"); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: planned request attached to %v, want %v", tc.name, got, tc.want)
		}
		if err := mt.Request("warm", 0); err != nil { // not in the plan: scan mode
			t.Fatal(err)
		}
		if got, live := attached(mt, "warm"), len(recs)-len(mt.Metrics().DeadChannels); len(got) != live {
			t.Fatalf("%s: unplanned request attached to %v, want all %d live channels", tc.name, got, live)
		}
		mt.Close()
	}
}

// TestMultiTunerCloseMidRunOverRecordings: Close documents ending a run
// in flight by closing its sources, which over Recording replays is a
// Close concurrent with Next — a data race on the replay cursor until
// Close took the recording's lock (run under -race).
func TestMultiTunerCloseMidRunOverRecordings(t *testing.T) {
	rec := &Recording{}
	for i := 0; i < 1<<16; i++ {
		rec.Send(Slot{T: i}) // idle air: the request below can never complete
	}
	mt, err := NewMultiTuner([]Source{rec.Source(), rec.Source()})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Request("never-broadcast", 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan []ClusterResult, 1)
	go func() {
		results, _ := mt.RunInto(context.Background(), nil)
		done <- results
	}()
	for m := mt.Metrics(); m.SlotsPerChannel[0] == 0 || m.SlotsPerChannel[1] == 0; m = mt.Metrics() {
		runtime.Gosched() // both drivers are inside their Next loops
	}
	if err := mt.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case results := <-done:
		if len(results) != 1 || results[0].Completed || results[0].Channel != -1 {
			t.Fatalf("run ended by Close produced %+v", results)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run still in flight 5 s after Close")
	}
	if m := mt.Metrics(); m.SlotsPerChannel[0] >= len(recorded(rec)) && m.SlotsPerChannel[1] >= len(recorded(rec)) {
		t.Logf("both replays ran out before Close (%v slots): the race window was missed", m.SlotsPerChannel)
	}
}

// TestMultiTunerPoolsAcrossChannels: a scan-mode request on the paced
// daemon cluster's two channels, walked in lock-step from every start
// offset of a period, completes on the very slot the union of the two
// homes' block numbers reaches m — on the channel that sent that block,
// with exactly m blocks and the file's bytes — which for every replicated
// file is, from some offsets, sooner than either home alone. A tuner run
// on its own drivers over the same air, where the channels drift apart,
// still rebuilds every file from m blocks.
func TestMultiTunerPoolsAcrossChannels(t *testing.T) {
	c, files := daemonCluster(t, true)
	contents := workload.Contents(files, 16, 1)
	cycles := cyclesOnAir(t, c)
	sources := func(start int) []Source {
		srcs := make([]Source, len(cycles))
		for ch, cycle := range cycles {
			srcs[ch] = &LoopReplay{Slots: cycle, Pos: start}
		}
		return srcs
	}
	var replicated []FileSpec
	for _, f := range files {
		if len(c.Assignment()[f.Name]) < 2 {
			continue
		}
		replicated = append(replicated, f)
		pooled, sooner := 0, 0
		for start := range cycles[0] {
			srcs := sources(start)
			mt, err := NewMultiTuner(srcs, WithDirectory(c.Directory()), WithRequest(f.Name, 0))
			if err != nil {
				t.Fatal(err)
			}
			for !tunerDone(mt) {
				for ch, src := range srcs {
					slot, _ := src.Next()
					mt.observe(ch, slot)
				}
			}
			window := c.Station(0).Bandwidth() * f.Latency
			want, ok := worstRetrieval(onAir(cycles...), len(cycles), start, window, f.Name, f.Blocks, 0)
			res := mt.results[0]
			if !ok || !res.Completed || res.Latency != want.slots || res.Channel != want.channel || res.BlocksUsed != f.Blocks || !bytes.Equal(res.Data, contents[f.Name]) {
				t.Fatalf("%q from slot %d: %d slots on channel %d with %d blocks (completed %v), the union holds %d after %d slots, the last from channel %d (within the window %v)",
					f.Name, start, res.Latency, res.Channel, res.BlocksUsed, res.Completed, f.Blocks, want.slots, want.channel, ok)
			}
			alone := 1 << 30
			for _, cycle := range cycles {
				l, ok := worstRetrieval(onAir(cycle), 1, start, window, f.Name, f.Blocks, 0)
				if alone = min(alone, l.slots); !ok || want.slots > alone {
					t.Fatalf("%q from slot %d: %d slots pooled, %d on one channel alone (within the window %v)", f.Name, start, want.slots, l.slots, ok)
				}
			}
			if want.slots < alone {
				sooner++
			}
			pooled += mt.Metrics().Pooled
			mt.Close()
		}
		if pooled == 0 || sooner == 0 {
			t.Fatalf("%q: %d of %d retrievals pooled, %d sooner than the better home alone", f.Name, pooled, len(cycles[0]), sooner)
		}
	}
	if len(replicated) == 0 {
		t.Fatal("the daemon cluster replicates nothing")
	}

	mt, err := NewMultiTuner(sources(0), WithDirectory(c.Directory()))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	for round := 0; round < 20; round++ {
		for _, f := range replicated {
			if err := mt.Request(f.Name, 0); err != nil {
				t.Fatal(err)
			}
		}
		results, err := mt.RunInto(context.Background(), nil)
		if err != nil || len(results) != len(replicated) {
			t.Fatalf("round %d: %d results (%v)", round, len(results), err)
		}
		for _, res := range results {
			i := slices.IndexFunc(replicated, func(f FileSpec) bool { return f.Name == res.File })
			if i < 0 || !res.Completed || res.BlocksUsed != replicated[i].Blocks || !bytes.Equal(res.Data, contents[res.File]) {
				t.Fatalf("round %d: %+v", round, res)
			}
			mt.Recycle(res)
		}
	}
}

// TestMultiTunerHopKeepsBlocks: a planned request that loses its channel
// after k < m blocks takes them along to the channel it hops to, and
// completes there on m−k more — with m blocks used, the file's bytes,
// and in fewer slots than a request made fresh at the hop.
func TestMultiTunerHopKeepsBlocks(t *testing.T) {
	c, files := daemonCluster(t, true)
	contents := workload.Contents(files, 16, 1)
	cycles := cyclesOnAir(t, c)
	hopped := 0
	for _, f := range files {
		plan := c.FetchPlan()[f.Name]
		if len(plan) < 2 || f.Blocks < 2 {
			continue
		}
		first, second := plan[0], plan[1]
		for k := 1; k < f.Blocks; k++ {
			srcs := []Source{&LoopReplay{Slots: cycles[0]}, &LoopReplay{Slots: cycles[1]}}
			mt, err := NewMultiTuner(srcs, WithDirectory(c.Directory()), WithTunerHomes(c.FetchPlan()), WithRequest(f.Name, 0))
			if err != nil {
				t.Fatal(err)
			}
			hop := 0 // the slot after the one that delivered the k-th block
			for got := 0; got < k; hop++ {
				slot, _ := srcs[first].Next()
				if mt.observe(first, slot); slot.File == f.Name {
					got++
				}
			}
			mt.det.Fail(first) // what drive does when the stream ends
			mt.channelDied(first)
			fresh, ok := worstRetrieval(onAir(cycles[second]), 1, hop, c.Station(0).Bandwidth()*f.Latency, f.Name, f.Blocks, 0)
			srcs[second].(*LoopReplay).Pos = hop
			for !tunerDone(mt) {
				slot, _ := srcs[second].Next()
				mt.observe(second, slot)
			}
			res, m := mt.results[0], mt.Metrics()
			if !res.Completed || res.Channel != second || res.BlocksUsed != f.Blocks || !bytes.Equal(res.Data, contents[f.Name]) || m.Hops != 1 || m.Pooled != 1 {
				t.Fatalf("%q hopping after %d blocks: %+v, metrics %+v", f.Name, k, res, m)
			}
			if !ok || res.Latency >= fresh.slots {
				t.Fatalf("%q hopping at slot %d with %d of %d blocks: %d slots on channel %d, a fresh request takes %d (within the window %v)",
					f.Name, hop, k, f.Blocks, res.Latency, second, fresh.slots, ok)
			}
			hopped++
			mt.Close()
		}
	}
	if hopped == 0 {
		t.Fatal("no replicated file of two blocks or more to hop with")
	}
}

// oneReader wraps a Source and counts the Next calls that overlap
// another: a tuner must never have two goroutines reading one source.
// Armed with cancelAfter, it cancels a context once it has delivered
// that many more slots.
type oneReader struct {
	Source
	inNext, overlaps atomic.Int32

	mu     sync.Mutex
	left   int
	cancel context.CancelFunc
}

func (o *oneReader) Next() (Slot, error) {
	if o.inNext.Add(1) > 1 {
		o.overlaps.Add(1)
	}
	defer o.inNext.Add(-1)
	slot, err := o.Source.Next()
	o.mu.Lock()
	if o.cancel != nil {
		if o.left--; o.left <= 0 {
			o.cancel()
			o.cancel = nil
		}
	}
	o.mu.Unlock()
	return slot, err
}

// cancelAfter arms the reader to call cancel after n more slots; a nil
// cancel disarms it.
func (o *oneReader) cancelAfter(n int, cancel context.CancelFunc) {
	o.mu.Lock()
	o.left, o.cancel = n, cancel
	o.mu.Unlock()
}

// gatedSource is a channel that sends only when the test opens its
// gate: Next announces itself on entered, then blocks until a send on
// gate (and returns an idle slot) or until Close (and returns io.EOF).
type gatedSource struct {
	gate, entered chan struct{}
	closed        chan struct{}
	closeOnce     sync.Once
	sent          int
}

func newGatedSource() *gatedSource {
	return &gatedSource{gate: make(chan struct{}), entered: make(chan struct{}, 8), closed: make(chan struct{})}
}

func (g *gatedSource) Next() (Slot, error) {
	g.entered <- struct{}{}
	select {
	case <-g.gate:
		g.sent++
		return Slot{T: g.sent - 1}, nil
	case <-g.closed:
		return Slot{}, io.EOF
	}
}

func (g *gatedSource) Close() error {
	g.closeOnce.Do(func() { close(g.closed) })
	return nil
}

// startAfter holds a source's first Next until start is closed, and
// signals read (without blocking) before every Next.
type startAfter struct {
	Source
	start <-chan struct{}
	read  chan struct{}
}

func (s *startAfter) Next() (Slot, error) {
	<-s.start
	select {
	case s.read <- struct{}{}:
	default:
	}
	return s.Source.Next()
}

// TestMultiTunerRunEndsWithLastRequest: a run returns on the slot that
// completes its last request, while a losing channel's driver is still
// blocked in Next (bdload finding 8). That driver finishes its call
// under the next run and hands it the frame — the slot is counted once
// — and no second goroutine ever reads its source.
func TestMultiTunerRunEndsWithLastRequest(t *testing.T) {
	c := testCluster(t)
	cycle := cycleOnAir(t, c.Station(0))
	file := ""
	for _, s := range cycle {
		if s.File != "" {
			file = s.File
			break
		}
	}
	gated := newGatedSource()
	// Channel 0 reads its first slot only once channel 1's driver is
	// blocked in Next, so the run cannot end before that.
	waiting := make(chan struct{})
	ch1 := &oneReader{Source: gated}
	ch0 := &startAfter{Source: &LoopReplay{Slots: cycle}, start: waiting, read: make(chan struct{}, 1)}
	mt, err := NewMultiTuner([]Source{ch0, ch1},
		WithDirectory(c.Directory()),
		WithTunerHomes(map[string][]int{file: {0}, "only-on-1": {1}}),
		WithRequest(file, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	type outcome struct {
		res []ClusterResult
		err error
	}
	runInto := func(ctx context.Context) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			res, err := mt.RunInto(ctx, nil)
			out <- outcome{res, err}
		}()
		return out
	}
	first := runInto(context.Background())
	<-gated.entered
	close(waiting)
	select {
	case out := <-first:
		if out.err != nil || len(out.res) != 1 || !out.res[0].Completed || out.res[0].Channel != 0 {
			t.Fatalf("first run: %+v, %v", out.res, out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunInto still waits for channel 1's driver blocked in Next after its last request completed")
	}
	if n := ch1.inNext.Load(); n != 1 {
		t.Fatalf("%d goroutines in channel 1's Next after the run, want its one driver still blocked", n)
	}
	before := mt.Metrics().SlotsPerChannel[1]

	// The next run's request can complete on channel 1 only, so the run
	// is active until the test cancels it. Channel 0 reads only while a
	// run is active, so its next read shows the second one started.
	<-ch0.read // the token of the first run's reads
	if err := mt.Request("only-on-1", 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	second := runInto(ctx)
	<-ch0.read
	gated.gate <- struct{}{} // one frame, to the driver blocked since the first run
	<-gated.entered          // that driver observed it and reads on for the active run
	if got := mt.Metrics().SlotsPerChannel[1]; got != before+1 {
		t.Fatalf("channel 1 counted %d slots after one frame, had %d", got, before)
	}
	cancel()
	out := <-second
	if !errors.Is(out.err, context.Canceled) || len(out.res) != 1 || out.res[0].Completed || out.res[0].Channel != -1 {
		t.Fatalf("second run: %+v, %v", out.res, out.err)
	}
	if n := ch1.overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping Next calls on channel 1", n)
	}
}

// TestMultiTunerOneReaderPerSource: over 2 000 seeded rounds of
// Request → RunInto → Recycle — planned and scanning requests, some
// runs cut short by a context cancelled after a random number of slots
// — no two goroutines ever read one source at once, and every run hands
// over one result per request. After Close a run flushes at once.
func TestMultiTunerOneReaderPerSource(t *testing.T) {
	c := testCluster(t)
	recs := clusterAir(t, c, 256)
	contents := CatalogContents(clusterCatalog(), 64, 1)
	plan := c.FetchPlan()
	names := slices.Sorted(maps.Keys(plan))
	readers := make([]*oneReader, len(recs))
	srcs := make([]Source, len(recs))
	for i, rec := range recs {
		readers[i] = &oneReader{Source: &LoopReplay{Slots: rec}}
		srcs[i] = readers[i]
	}
	mt, err := NewMultiTuner(srcs, WithDirectory(c.Directory()), WithTunerHomes(plan))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(33, 1))
	var results []ClusterResult
	for round := 0; round < 2000; round++ {
		want := 0
		for _, name := range names {
			if rng.IntN(3) != 0 {
				continue
			}
			var order []int // scan mode
			if rng.IntN(2) == 0 {
				order = plan[name]
			}
			if err := mt.requestVia(name, 0, order); err != nil {
				t.Fatal(err)
			}
			want++
		}
		ctx, cancel := context.WithCancel(context.Background())
		for _, r := range readers {
			r.cancelAfter(0, nil)
		}
		if rng.IntN(4) == 0 {
			readers[rng.IntN(len(readers))].cancelAfter(1+rng.IntN(64), cancel)
		}
		results, err = mt.RunInto(ctx, results[:0])
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(results) != want {
			t.Fatalf("round %d: %d results for %d requests", round, len(results), want)
		}
		for _, res := range results {
			if res.Completed && !bytes.Equal(res.Data, contents[res.File]) || !res.Completed && (err == nil || res.Channel != -1) {
				t.Fatalf("round %d (err %v): %+v", round, err, res)
			}
			mt.Recycle(res)
		}
	}
	if err := mt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mt.Request("warm", 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan []ClusterResult, 1)
	go func() {
		res, _ := mt.RunInto(context.Background(), nil)
		done <- res
	}()
	select {
	case res := <-done:
		if len(res) != 1 || res[0].Completed || res[0].Channel != -1 {
			t.Fatalf("run after Close: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run after Close still blocked")
	}
	for i, r := range readers {
		if n := r.overlaps.Load(); n != 0 {
			t.Fatalf("channel %d: %d overlapping Next calls", i, n)
		}
	}
}
