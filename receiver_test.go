package pinbcast

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// receiverStation returns a three-file station covering the paper's
// spread: a hot small file, a colder large one, and a single-block
// bulletin, all with one-fault redundancy.
func receiverStation(t testing.TB) (*Station, map[string][]byte) {
	t.Helper()
	contents := map[string][]byte{
		"A": []byte("file A: the hot real-time bulletin, dispersed twice over"),
		"B": []byte("file B: the colder background map, reconstructed from any three of its blocks"),
		"C": []byte("file C: one-block flash update"),
	}
	st, err := New(
		WithFiles(
			FileSpec{Name: "A", Blocks: 2, Latency: 10, Faults: 1},
			FileSpec{Name: "B", Blocks: 3, Latency: 20, Faults: 1},
			FileSpec{Name: "C", Blocks: 1, Latency: 8, Faults: 1},
		),
		WithContents(contents),
	)
	if err != nil {
		t.Fatal(err)
	}
	return st, contents
}

// record captures n slots of a freshly served broadcast.
func record(t testing.TB, st *Station, n int) *Recording {
	rec := &Recording{}
	for _, s := range air(t, st, n) {
		rec.Send(s)
	}
	return rec
}

// TestEndToEndFanout is the acceptance path of the receiver API: one
// Station streams through a TCP Fanout to three Receivers that tuned
// in over the network, each suffering independent Bernoulli reception
// faults; every file must reconstruct intact within its latency window
// (deadline = bandwidth × latency slots).
func TestEndToEndFanout(t *testing.T) {
	st, contents := receiverStation(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fan := NewFanout(ln, 0)
	defer fan.Close()

	// Subscribe all three receivers before the first slot goes on air so
	// the run is deterministic; each wants every file, under its own
	// fault stream.
	bw := st.Bandwidth()
	reqs := []Request{
		{File: "A", Deadline: bw * 10},
		{File: "B", Deadline: bw * 20},
		{File: "C", Deadline: bw * 8},
	}
	const nReceivers = 3
	receivers := make([]*Receiver, nReceivers)
	for i := range receivers {
		src, err := DialSource(fan.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		src.Timeout = 5 * time.Second
		receivers[i], err = Subscribe(src,
			WithDirectory(st.Directory()),
			withRequests(reqs...),
			WithReceiverFaults(BernoulliFaults(0.02, int64(i+1))),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fan.ClientCount() < nReceivers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d receivers subscribed", fan.ClientCount())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.Broadcast(ctx, fan)

	var wg sync.WaitGroup
	results := make([][]Result, nReceivers)
	errs := make([]error, nReceivers)
	for i, r := range receivers {
		wg.Add(1)
		go func(i int, r *Receiver) {
			defer wg.Done()
			defer r.Close()
			results[i], errs[i] = r.RunInto(context.Background(), nil)
		}(i, r)
	}
	wg.Wait()

	for i := range receivers {
		if errs[i] != nil {
			t.Fatalf("receiver %d: %v", i, errs[i])
		}
		if len(results[i]) != len(reqs) {
			t.Fatalf("receiver %d: %d results, want %d", i, len(results[i]), len(reqs))
		}
		for _, r := range results[i] {
			if !r.Completed || !bytes.Equal(r.Data, contents[r.File]) {
				t.Fatalf("receiver %d: file %q not reconstructed intact", i, r.File)
			}
			if !r.DeadlineMet {
				t.Fatalf("receiver %d: file %q took %d slots, window %d",
					i, r.File, r.Latency, r.Deadline)
			}
		}
		m := receivers[i].Metrics()
		if m.Injected > 0 && m.Corrupted < m.Injected {
			t.Fatalf("receiver %d: injected %d corruptions, detected %d", i, m.Injected, m.Corrupted)
		}
	}
}

// TestReceiverSourceParity drives identical Receiver code against the
// in-process transport and a replayed recording of the same broadcast:
// under the same deterministic fault pattern, both must reconstruct
// every file with identical latencies — and both learn the directory
// from the stream without WithDirectory.
func TestReceiverSourceParity(t *testing.T) {
	st, contents := receiverStation(t)
	rec := record(t, st, 6*st.Program().DataCycle())

	subscribe := func(src Source) *Receiver {
		r, err := Subscribe(src,
			withRequests(Request{File: "A"}, Request{File: "B"}, Request{File: "C"}),
			WithReceiverFaults(SlotFaults(0, 2, 5)),
		)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	latencies := func(results []Result) map[string]int {
		out := make(map[string]int, len(results))
		for _, r := range results {
			if !r.Completed || !bytes.Equal(r.Data, contents[r.File]) {
				t.Fatalf("file %q not reconstructed intact", r.File)
			}
			out[r.File] = r.Latency
		}
		return out
	}

	// Replay transport.
	replay := subscribe(rec.Source())
	replayResults, err := replay.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// In-process transport, same station rebuilt stream.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	inproc := subscribe(SlotSource(slots))
	inprocResults, err := inproc.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for range slots {
	}

	lr, li := latencies(replayResults), latencies(inprocResults)
	for file, lat := range lr {
		if li[file] != lat {
			t.Fatalf("file %q: replay latency %d, in-process %d", file, lat, li[file])
		}
	}
}

// TestReceiverDozing checks the (1, m)-index tradeoff on a live
// stream: a schedule-aware receiver reconstructs with the same latency
// while listening to strictly fewer slots.
func TestReceiverDozing(t *testing.T) {
	st, contents := receiverStation(t)
	rec := record(t, st, 6*st.Program().DataCycle())

	baseline, err := Subscribe(rec.Source(), WithRequest("B", 0))
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	dozing, err := Subscribe(rec.Source(),
		WithRequest("B", 0),
		WithSchedule(st.Program()),
	)
	if err != nil {
		t.Fatal(err)
	}
	dozed, err := dozing.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	if !dozed[0].Completed || !bytes.Equal(dozed[0].Data, contents["B"]) {
		t.Fatal("dozing receiver failed to reconstruct")
	}
	if dozed[0].Latency != base[0].Latency {
		t.Fatalf("dozing changed access latency: %d vs %d", dozed[0].Latency, base[0].Latency)
	}
	bm, dm := baseline.Metrics(), dozing.Metrics()
	if dm.Listened >= bm.Listened {
		t.Fatalf("dozing did not reduce tuning time: %d vs %d", dm.Listened, bm.Listened)
	}
	if dm.Dozed == 0 {
		t.Fatal("no slots dozed")
	}
	if dm.Listened >= dm.Slots {
		t.Fatalf("listened to %d of %d slots, want fewer", dm.Listened, dm.Slots)
	}
}

// TestReceiverDozingSurvivesGenerationSwap: a schedule-aware receiver
// whose program is re-aligned by an online Admit loses its doze
// alignment; it must detect the generation swap in the stream and fall
// back to continuous listening rather than sleep through the slots of
// a file its stale schedule has never heard of.
func TestReceiverDozingSurvivesGenerationSwap(t *testing.T) {
	st, _ := receiverStation(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The request is for a file the gen-1 schedule does not contain: a
	// receiver that keeps dozing on that schedule would never wake.
	payload := []byte("file D: admitted after the receiver tuned in")
	r, err := Subscribe(SlotSource(slots),
		WithRequest("D", 0),
		WithSchedule(st.Program()),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Latch the receiver onto generation 1 before the admission.
	for i := 0; i < 3; i++ {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Admit(FileSpec{Name: "D", Blocks: 1, Latency: 16}, payload); err != nil {
		t.Fatal(err)
	}
	runCtx, runCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer runCancel()
	results, err := r.RunInto(runCtx, nil)
	if err != nil {
		t.Fatalf("receiver stuck dozing on a stale schedule: %v", err)
	}
	if !results[0].Completed || !bytes.Equal(results[0].Data, payload) {
		t.Fatal("admitted file not reconstructed after the swap")
	}
}

// TestReceiverFlushOnStreamEnd: a request the recording cannot satisfy
// is flushed as a failure when the replay runs dry.
func TestReceiverFlushOnStreamEnd(t *testing.T) {
	st, _ := receiverStation(t)
	rec := record(t, st, 3) // far too short to rebuild B
	r, err := Subscribe(rec.Source(), WithRequest("B", 4))
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Completed {
		t.Fatalf("truncated stream produced %+v", results)
	}
}

// TestSubscribeValidation covers the option error paths.
func TestSubscribeValidation(t *testing.T) {
	if _, err := Subscribe(nil); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nil source: err = %v, want ErrBadSpec", err)
	}
	rec := &Recording{}
	if _, err := Subscribe(rec.Source(), WithSchedule(nil)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nil schedule: err = %v, want ErrBadSpec", err)
	}
	if _, err := Subscribe(rec.Source(), WithRequest("", 0)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty file: err = %v, want ErrBadSpec", err)
	}
	if _, err := Subscribe(rec.Source(), WithRequest("A", 0), WithRequest("A", 0)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate request: err = %v, want ErrBadSpec", err)
	}
	if _, err := Subscribe(rec.Source(), WithReceiverFaults(SlotFaults(1), SlotFaults(2))); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("two fault models for one source: err = %v, want ErrBadSpec", err)
	}
	if _, err := Subscribe(rec.Source(), WithReceiverFaults(), WithReceiverFaults(nil)); err != nil {
		t.Fatalf("no fault model, then a nil one: %v", err)
	}
}

// TestRecordingAsSink verifies the Sink half of Recording: a station
// broadcast captured through Station.Broadcast replays to a receiver.
func TestRecordingAsSink(t *testing.T) {
	st, contents := receiverStation(t)
	rec := &Recording{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- st.Broadcast(ctx, rec) }()
	deadline := time.Now().Add(5 * time.Second)
	want := 4 * st.Program().DataCycle()
	for len(recorded(rec)) < want {
		if time.Now().After(deadline) {
			t.Fatalf("recorded %d of %d slots", len(recorded(rec)), want)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r, err := Subscribe(rec.Source(), WithRequest("A", 0))
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Completed || !bytes.Equal(results[0].Data, contents["A"]) {
		t.Fatal("replayed broadcast did not reconstruct")
	}
}
