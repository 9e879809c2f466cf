package pinbcast

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pinbcast/internal/workload"
)

// recordChannels serves each station of the cluster into a Recording
// for n slots and returns one replay Source per channel.
func recordChannels(t *testing.T, c *Cluster, n int) []*Recording {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := c.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Recording, len(slots))
	for i, ch := range slots {
		rec, err := recordN(SlotSource(ch), n)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	return recs
}

// loopingSource replays a recording cyclically with a monotone slot
// clock — a live channel stand-in that never ends, so tests of the
// hop machinery don't race against replay exhaustion.
type loopingSource struct {
	slots  []Slot
	pos    int
	closed bool
}

func (l *loopingSource) Next() (Slot, error) {
	if l.closed || len(l.slots) == 0 {
		return Slot{}, io.EOF
	}
	s := l.slots[l.pos%len(l.slots)]
	s.T = l.pos
	l.pos++
	return s, nil
}

func (l *loopingSource) Close() error {
	l.closed = true
	return nil
}

func TestMultiTunerHopOnEOF(t *testing.T) {
	c := testCluster(t)
	recs := recordChannels(t, c, 256)
	plan := c.FetchPlan()

	// hot-a is replicated; its cheapest-first plan starts on a channel
	// whose replay ends after one slot (too few for the M=2 threshold),
	// so the tuner must hop to the replica and still complete.
	first := plan["hot-a"][0]
	srcs := make([]Source, c.Channels())
	for i, rec := range recs {
		if i == first {
			short := &Recording{}
			short.Send(recorded(rec)[0])
			srcs[i] = short.Source()
		} else {
			srcs[i] = &loopingSource{slots: recorded(rec)}
		}
	}
	mt, err := NewMultiTuner(srcs,
		WithTunerDirectory(c.Directory()),
		WithTunerHomes(map[string][]int{"hot-a": plan["hot-a"]}),
		WithTunerRequest("hot-a", 0),
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
	recs := recordChannels(t, c, 256)
	srcs := make([]Source, len(recs))
	for i, rec := range recs {
		srcs[i] = rec.Source()
	}
	// No fetch plan at all: every request scans all channels; the
	// winning channel records the result and the losers are cancelled.
	mt, err := NewMultiTuner(srcs, WithTunerDirectory(c.Directory()))
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
	rec := recordChannels(t, c, 256)[0]
	// The first two files channel 0 carries, and an adversary that
	// destroys the first and third transmission of each.
	var files []string
	var kill []int
	sent := map[string]int{}
	for _, s := range recorded(rec) {
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

	rcv, err := Subscribe(rec.Source(),
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

	mt, err := NewMultiTuner([]Source{rec.Source()},
		WithTunerDirectory(c.Directory()),
		WithTunerFaults(SlotFaults(kill...)),
		withTunerRequests(reqs...),
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
	recs := recordChannels(t, c, 256)
	for _, started := range []bool{true, false} {
		srcs := make([]Source, len(recs))
		for i, rec := range recs {
			srcs[i] = &loopingSource{slots: recorded(rec)}
		}
		mt, err := NewMultiTuner(srcs, WithTunerDirectory(c.Directory()))
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
	recs := recordChannels(t, c, 16)
	plan := c.FetchPlan()
	order := []string{"warm", "hot-b", "cold", "cool-a", "hot-a"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for run := 0; run < 50; run++ {
		srcs := make([]Source, len(recs))
		for i, rec := range recs {
			srcs[i] = rec.Source()
		}
		mt, err := NewMultiTuner(srcs, WithTunerDirectory(c.Directory()), WithTunerHomes(plan))
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
	recs := recordChannels(t, c, 16)
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
				srcs[i] = rec.Source()
			}
		}
		mt, err := NewMultiTuner(srcs, WithTunerDirectory(c.Directory()),
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

// pooledModel is the pooled retrieval rule in block numbers, sharing no
// code with the tuner: listening to every channel of cycles (one data
// cycle each, replayed cyclically) in lock-step from slot start, it
// returns the first slot count after which the distinct numbers of
// file's blocks heard, whichever channel sent them, reach m, and the
// channel that sent the last (the lowest, where several do in that slot).
func pooledModel(cycles [][]Slot, start int, file string, m int) (latency, channel int) {
	var have [256]bool
	for k, got := 0, 0; ; k++ {
		for ch, cycle := range cycles {
			if s := cycle[(start+k)%len(cycle)]; s.File == file && !have[s.Seq] {
				if have[s.Seq], got = true, got+1; got == m {
					return k + 1, ch
				}
			}
		}
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
	cycles := make([][]Slot, c.Channels())
	for ch := range cycles {
		cycles[ch] = cycleOnAir(t, c.Station(ch))
	}
	sources := func(start int) []Source {
		srcs := make([]Source, len(cycles))
		for ch, cycle := range cycles {
			srcs[ch] = &loopingSource{slots: cycle, pos: start}
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
			mt, err := NewMultiTuner(srcs, WithTunerDirectory(c.Directory()), WithTunerRequest(f.Name, 0))
			if err != nil {
				t.Fatal(err)
			}
			for !tunerDone(mt) {
				for ch, src := range srcs {
					slot, _ := src.Next()
					mt.observe(ch, slot)
				}
			}
			want, wantCh := pooledModel(cycles, start, f.Name, f.Blocks)
			res := mt.results[0]
			if !res.Completed || res.Latency != want || res.Channel != wantCh || res.BlocksUsed != f.Blocks || !bytes.Equal(res.Data, contents[f.Name]) {
				t.Fatalf("%q from slot %d: %d slots on channel %d with %d blocks (completed %v), the union holds %d after %d slots, the last from channel %d",
					f.Name, start, res.Latency, res.Channel, res.BlocksUsed, res.Completed, f.Blocks, want, wantCh)
			}
			alone := 1 << 30
			for ch := range cycles {
				l, _ := pooledModel(cycles[ch:ch+1], start, f.Name, f.Blocks)
				alone = min(alone, l)
			}
			if want > alone {
				t.Fatalf("%q from slot %d: %d slots pooled, %d on one channel alone", f.Name, start, want, alone)
			}
			if want < alone {
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

	mt, err := NewMultiTuner(sources(0), WithTunerDirectory(c.Directory()))
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
			if !res.Completed || res.BlocksUsed != c.specs[res.File].Blocks || !bytes.Equal(res.Data, contents[res.File]) {
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
	cycles := make([][]Slot, c.Channels())
	for ch := range cycles {
		cycles[ch] = cycleOnAir(t, c.Station(ch))
	}
	hopped := 0
	for _, f := range files {
		plan := c.FetchPlan()[f.Name]
		if len(plan) < 2 || f.Blocks < 2 {
			continue
		}
		first, second := plan[0], plan[1]
		for k := 1; k < f.Blocks; k++ {
			srcs := []Source{&loopingSource{slots: cycles[0]}, &loopingSource{slots: cycles[1]}}
			mt, err := NewMultiTuner(srcs, WithTunerDirectory(c.Directory()), WithTunerHomes(c.FetchPlan()), WithTunerRequest(f.Name, 0))
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
			fresh, _ := pooledModel(cycles[second:second+1], hop, f.Name, f.Blocks)
			srcs[second].(*loopingSource).pos = hop
			for !tunerDone(mt) {
				slot, _ := srcs[second].Next()
				mt.observe(second, slot)
			}
			res, m := mt.results[0], mt.Metrics()
			if !res.Completed || res.Channel != second || res.BlocksUsed != f.Blocks || !bytes.Equal(res.Data, contents[f.Name]) || m.Hops != 1 || m.Pooled != 1 {
				t.Fatalf("%q hopping after %d blocks: %+v, metrics %+v", f.Name, k, res, m)
			}
			if res.Latency >= fresh {
				t.Fatalf("%q hopping at slot %d with %d of %d blocks: %d slots on channel %d, a fresh request takes %d", f.Name, hop, k, f.Blocks, res.Latency, second, fresh)
			}
			hopped++
			mt.Close()
		}
	}
	if hopped == 0 {
		t.Fatal("no replicated file of two blocks or more to hop with")
	}
}
