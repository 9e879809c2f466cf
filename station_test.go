package pinbcast

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pinbcast/internal/channel"
	"pinbcast/internal/obs"
)

// lifecycleStation returns a small two-file station with headroom for
// admissions (density 0.45 at bandwidth 1).
func lifecycleStation(t *testing.T, opts ...Option) (*Station, map[string][]byte) {
	t.Helper()
	contents := map[string][]byte{
		"A": []byte("file A: the hot real-time bulletin"),
		"B": []byte("file B: the colder background map, three blocks long"),
	}
	base := []Option{
		WithFiles(
			FileSpec{Name: "A", Blocks: 2, Latency: 10, Faults: 1},
			FileSpec{Name: "B", Blocks: 3, Latency: 20},
		),
		WithContents(contents),
	}
	st, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return st, contents
}

// retrieve runs a Receiver over the slot stream under the fault model
// until every request completes, and returns the results.
func retrieve(t *testing.T, st *Station, slots <-chan Slot, fault FaultModel, names []string) []Result {
	t.Helper()
	opts := []ReceiverOption{WithDirectory(st.Directory()), WithReceiverFaults(fault)}
	for _, name := range names {
		opts = append(opts, WithRequest(name, 0))
	}
	rcv, err := Subscribe(SlotSource(slots), opts...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := rcv.RunInto(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Completed {
			t.Fatal("stream ended before retrieval completed")
		}
	}
	return results
}

// TestStationLifecycle is the end-to-end acceptance path: build →
// Serve(ctx) streaming → client reconstruction under Bernoulli faults →
// mid-run Admit at a data-cycle boundary → retrieval of the admitted
// file → Evict.
func TestStationLifecycle(t *testing.T) {
	st, contents := lifecycleStation(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: both initial files reconstruct despite 2% block loss.
	for _, r := range retrieve(t, st, slots, channel.NewBernoulli(0.02, 7), []string{"A", "B"}) {
		if !r.Completed || !bytes.Equal(r.Data, contents[r.File]) {
			t.Fatalf("file %q not reconstructed intact (completed=%v)", r.File, r.Completed)
		}
	}

	// Phase 2: admit a new file online; the swap must land exactly on a
	// data-cycle boundary of the running generation.
	cycle := st.Program().DataCycle()
	if err := st.Admit(FileSpec{Name: "C", Blocks: 1, Latency: 10}, []byte("file C: admitted online")); err != nil {
		t.Fatal(err)
	}
	swapT := -1
	for slot := range slots {
		if slot.Generation == 2 {
			swapT = slot.T
			break
		}
		if slot.T > 64*cycle {
			t.Fatal("admission never took effect")
		}
	}
	if st.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", st.Generation())
	}
	// The swap slot is the first slot of a new data cycle: all full
	// cycles before it belong to generation 1, so its offset within the
	// stream is a multiple of the generation-1 cycle length.
	if swapT%cycle != 0 {
		t.Fatalf("generation 2 started at slot %d, not on a %d-slot cycle boundary", swapT, cycle)
	}
	if len(st.Files()) != 3 {
		t.Fatalf("station carries %d files, want 3", len(st.Files()))
	}

	// Phase 3: the admitted file is retrievable from the live stream.
	for _, r := range retrieve(t, st, slots, channel.NewBernoulli(0.02, 11), []string{"C"}) {
		if !r.Completed || !bytes.Equal(r.Data, []byte("file C: admitted online")) {
			t.Fatalf("admitted file %q not reconstructed intact", r.File)
		}
	}

	// Phase 4: evict the original hot file; the next generation must
	// not carry it.
	if err := st.Evict("A"); err != nil {
		t.Fatal(err)
	}
	for slot := range slots {
		if slot.Generation == 3 {
			break
		}
	}
	for _, f := range st.Files() {
		if f.Name == "A" {
			t.Fatal("evicted file still in the program")
		}
	}
	for seen, want := 0, 2*st.Program().DataCycle(); seen < want; seen++ {
		slot, ok := <-slots
		if !ok {
			t.Fatal("stream closed early")
		}
		if slot.File == "A" {
			t.Fatal("evicted file still broadcast")
		}
	}

	// Phase 5: cancellation closes the stream.
	cancel()
	for range slots {
	}
}

// TestStationAdmitEvictStress hammers a streaming station with
// concurrent Admit/Evict (plus concurrent metadata reads) and asserts
// the §2.3 swap discipline from the outside: every program generation
// must broadcast a positive whole number of its own data cycles before
// the next generation takes over. Run under -race this also proves the
// Station's locking: mutators, readers and the serve loop share it
// concurrently.
func TestStationAdmitEvictStress(t *testing.T) {
	st, _ := lifecycleStation(t, WithSlotBuffer(64))
	bw := st.Bandwidth()
	spec := FileSpec{Name: "C", Blocks: 1, Latency: 10}

	// The station alternates strictly between the two-file and
	// three-file sets, so odd generations carry {A,B} and even ones
	// {A,B,C}. Build both programs offline (same default scheduler
	// chain, same bandwidth) to learn their data-cycle lengths.
	without, err := Build(BuildConfig{Files: st.Files(), Bandwidth: bw})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Build(BuildConfig{Files: append(st.Files(), spec), Bandwidth: bw})
	if err != nil {
		t.Fatal(err)
	}
	cycleOf := func(generation int) int {
		if generation%2 == 1 {
			return without.DataCycle()
		}
		return with.DataCycle()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Mutator: 40 admit/evict rounds while the stream runs.
	mutDone := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			if err := st.Admit(spec, []byte("file C: in and out")); err != nil {
				mutDone <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
			if err := st.Evict(spec.Name); err != nil {
				mutDone <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		mutDone <- nil
	}()
	// Reader: metadata accessors race against mutations and the loop.
	readerCtx, readerCancel := context.WithCancel(context.Background())
	defer readerCancel()
	go func() {
		for readerCtx.Err() == nil {
			_ = st.Generation()
			_ = st.Program().DataCycle()
			_ = st.Directory()
			_ = st.Files()
		}
	}()

	gen, inGen, swaps := 0, 0, 0
	mutErr := error(nil)
	for done := false; !done; {
		select {
		case mutErr = <-mutDone:
			done = true
		case slot, ok := <-slots:
			if !ok {
				t.Fatal("stream closed early")
			}
			if gen == 0 {
				gen = slot.Generation
			}
			if slot.Generation != gen {
				if slot.Generation < gen {
					t.Fatalf("generation went backwards: %d after %d", slot.Generation, gen)
				}
				if cyc := cycleOf(gen); inGen == 0 || inGen%cyc != 0 {
					t.Fatalf("generation %d swapped out after %d slots, not a positive multiple of its %d-slot data cycle",
						gen, inGen, cyc)
				}
				swaps++
				gen, inGen = slot.Generation, 0
			}
			inGen++
		}
	}
	if mutErr != nil {
		t.Fatal(mutErr)
	}
	// Drain any staged swap still in flight, then stop.
	for swaps == 0 {
		slot, ok := <-slots
		if !ok {
			t.Fatal("stream closed before any swap landed")
		}
		if slot.Generation != gen {
			swaps++
		}
	}
	cancel()
	for range slots {
	}
	if st.Generation() < 2 {
		t.Fatalf("no mutation took effect (generation %d)", st.Generation())
	}
}

func TestStationAdmitRejected(t *testing.T) {
	st, _ := lifecycleStation(t)
	gen := st.Generation()
	err := st.Admit(FileSpec{Name: "flood", Blocks: 200, Latency: 10}, bytes.Repeat([]byte("x"), 200))
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission", err)
	}
	if st.Generation() != gen {
		t.Fatal("rejected admission changed the program")
	}
	if err := st.Admit(FileSpec{Name: "A", Blocks: 1, Latency: 10}, nil); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate admission: err = %v, want ErrBadSpec", err)
	}
}

func TestStationEvictErrors(t *testing.T) {
	st, _ := lifecycleStation(t)
	if err := st.Evict("nope"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown eviction: err = %v, want ErrBadSpec", err)
	}
	if err := st.Evict("A"); err != nil {
		t.Fatal(err)
	}
	if err := st.Evict("B"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("last-file eviction: err = %v, want ErrBadSpec", err)
	}
}

func TestStationAdmitWhileIdleAppliesImmediately(t *testing.T) {
	st, _ := lifecycleStation(t)
	if err := st.Admit(FileSpec{Name: "C", Blocks: 1, Latency: 10}, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 2 || len(st.Files()) != 3 {
		t.Fatalf("idle admission not applied: generation %d, %d files", st.Generation(), len(st.Files()))
	}
}

func TestStationServeSingleFlight(t *testing.T) {
	st, _ := lifecycleStation(t)
	ctx, cancel := context.WithCancel(context.Background())
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Serve(ctx); !errors.Is(err, ErrServing) {
		t.Fatalf("second Serve: err = %v, want ErrServing", err)
	}
	cancel()
	for range slots {
	}
	// After the loop drains, the station can serve again.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	slots2, err := st.Serve(ctx2)
	if err != nil {
		t.Fatalf("re-Serve: %v", err)
	}
	cancel2()
	for range slots2 {
	}
}

// parkClock parks a paced serve loop in its first wait, tells the test
// so, and ends the wait only with the stream's context.
type parkClock struct{ parked chan struct{} }

func (parkClock) Now() time.Time { return pacerTestEpoch }

func (c parkClock) SleepUntil(ctx context.Context, _ time.Time) (time.Duration, bool) {
	c.parked <- struct{}{}
	<-ctx.Done()
	return 0, false
}

// TestStationServesAgainOnceDrained holds Broadcast's promise that a
// drained station is serviceable at once. First the serve loop ends
// while the test holds the station's lock: the stream must not close
// before the station is free. Then 10 000 rounds of serve, read a slot,
// cancel, drain must each serve again without ErrServing, on four Ps.
func TestStationServesAgainOnceDrained(t *testing.T) {
	st, _ := lifecycleStation(t, WithSlotInterval(pacerTestInterval))
	clk := parkClock{parked: make(chan struct{}, 1)}
	st.clock = clk
	ctx, cancel := context.WithCancel(context.Background())
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-clk.parked // the loop holds no lock until the stream ends
	drained := make(chan struct{})
	go func() {
		for range slots {
		}
		close(drained)
	}()
	st.mu.Lock()
	cancel()
	select {
	case <-drained:
		st.mu.Unlock()
		t.Fatal("the stream closed while the station was still serving")
	case <-time.After(100 * time.Millisecond): // the loop waits for the lock
	}
	st.mu.Unlock()
	<-drained

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	st, _ = lifecycleStation(t)
	for round := 0; round < 10000; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		slots, err := st.Serve(ctx)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		<-slots
		cancel()
		for range slots {
		}
	}
}

// TestSlotServedCarriesBlock: every slot_served trace event of a served
// stream names the block its slot carried, so a trace dump says what
// went on the air, not only which file.
func TestSlotServedCarriesBlock(t *testing.T) {
	st, _ := lifecycleStation(t)
	var before uint64
	if snap := traceRing.Snapshot(nil); len(snap) > 0 {
		before = snap[len(snap)-1].Seq
	}
	ctx, cancel := context.WithCancel(context.Background())
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sent, served := map[uint64]Slot{}, 0
	for len(sent) < 4*st.Program().DataCycle() {
		slot := <-slots
		sent[uint64(slot.T)] = slot
		if slot.Block != nil {
			served++
		}
	}
	cancel()
	for range slots {
	}
	checked := 0
	for _, ev := range traceRing.Snapshot(nil) {
		slot, ok := sent[ev.T]
		if ev.Seq <= before || ev.Kind != obs.SlotServed || !ok || slot.Block == nil || ev.File != slot.Block.FileID {
			continue
		}
		if int(ev.Block) != slot.Seq {
			t.Fatalf("slot %d carried block %d of %q, its trace event says %d", slot.T, slot.Seq, slot.File, ev.Block)
		}
		checked++
	}
	if checked != served {
		t.Fatalf("%d of %d served slots have a slot_served event", checked, served)
	}
}

func TestStationSlotInterval(t *testing.T) {
	st, _ := lifecycleStation(t, WithSlotInterval(time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for slot := range slots {
		if slot.T == 9 {
			break
		}
	}
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Fatalf("10 slots in %v, want ≥ 9ms pacing", elapsed)
	}
}

// TestBuildSchedulerChain: a station runs the default chain, so its
// program is Build's at the station's bandwidth; a chain given by name
// runs in the order given. (That the chain falls through a member whose
// schedule fails verification is held in internal/pinwheel.)
func TestBuildSchedulerChain(t *testing.T) {
	st, _ := lifecycleStation(t)
	cfg := BuildConfig{Files: st.Files(), Bandwidth: st.Bandwidth()}
	def, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Program(); got.Origin != def.Origin || !slices.Equal(got.Slots, def.Slots) {
		t.Fatalf("the station airs %s %v, Build's default chain gives %s %v", got.Origin, got.Slots, def.Origin, def.Slots)
	}
	cfg.Schedulers = []string{SchedulerEDF, SchedulerPortfolio}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Origin != "pinwheel/EDF" {
		t.Fatalf("program origin = %q, want the chain's first member, EDF", p.Origin)
	}
}

// TestSchedulerRegistry: every registered name builds through Build, and
// an unknown one is a bad specification whose message lists the names.
func TestSchedulerRegistry(t *testing.T) {
	want := []string{SchedulerEDF, SchedulerExact, SchedulerPortfolio, SchedulerSa, SchedulerSx, SchedulerTwoDistinct}
	if names := SchedulerNames(); !slices.Equal(names, want) {
		t.Fatalf("registered schedulers: %v, want %v", names, want)
	}
	files := []FileSpec{{Name: "A", Blocks: 1, Latency: 2}, {Name: "B", Blocks: 1, Latency: 4}}
	for _, name := range want {
		if _, err := Build(BuildConfig{Files: files, Bandwidth: 1, Schedulers: []string{name}}); err != nil {
			t.Errorf("scheduler %q: %v", name, err)
		}
	}
	if _, err := Build(BuildConfig{Files: files, Schedulers: []string{"no-such-scheduler"}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown scheduler: err = %v, want ErrBadSpec", err)
	} else if !strings.Contains(err.Error(), fmt.Sprint(want)) {
		t.Fatalf("unknown scheduler: %q does not list %v", err, want)
	}
}

// TestServedAirIsItsAirings: the air a station serves is a function of
// (generation, first slot) alone. Admit, Negotiate and Evict on one
// channel of a serving cluster, then FailChannel on another so that a
// survivor rebuilds, consumer-paced and paced; every slot each channel
// served is rebuilt from the generation the call staged and the first
// slot its id was served in — file, block number, the very block and
// frame, and whether the slot is one the program leaves idle — and
// checked against the emission's own BlockAt there. Each generation goes
// on the air a whole number of the previous one's data cycles after it.
func TestServedAirIsItsAirings(t *testing.T) {
	files := clusterCatalog()
	for _, paced := range []bool{false, true} {
		opts := []ClusterOption{WithChannels(3), WithReplicas(2), WithReplicateHottest(2),
			WithBandwidth(SufficientBandwidth(files)),
			WithFiles(files...), WithContents(CatalogContents(files, 16, 1)), WithSlotBuffer(8)}
		if paced {
			opts = append(opts, WithSlotInterval(pacerTestInterval))
		}
		c, err := NewCluster(opts...)
		if err != nil {
			t.Fatal(err)
		}
		// staged[ch][id] is what the call that staged id built on channel ch.
		staged := make([]map[int]*generation, c.Channels())
		for ch := range staged {
			st := c.Station(ch)
			if paced {
				st.clock = &freeClock{now: pacerTestEpoch}
			}
			staged[ch] = map[int]*generation{st.onAir.Load().id: st.onAir.Load()}
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		streams, err := c.Serve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		served := make([][]Slot, c.Channels())
		// record reads channel ch until its latest generation has been on
		// the air for two of its data cycles, and reports whether that
		// generation is new.
		record := func(ch int) (fresh bool) {
			gen := c.Station(ch).latest.Load()
			_, seen := staged[ch][gen.id]
			staged[ch][gen.id] = gen
			from := -1
			for from < 0 || len(served[ch])-from < 2*gen.program.DataCycle() {
				slot := <-streams[ch]
				if from < 0 && slot.Generation == gen.id {
					from = len(served[ch])
				}
				served[ch] = append(served[ch], slot)
			}
			return !seen
		}
		record(0)
		st := c.Station(0)
		for i, call := range []func() error{
			func() error {
				return st.Admit(FileSpec{Name: "admitted", Blocks: 2, Latency: 40}, []byte("admitted on a live channel"))
			},
			func() error {
				_, err := st.Negotiate(FileSpec{Name: "negotiated", Blocks: 1, Latency: 60}, []byte("negotiated"))
				return err
			},
			func() error { return st.Evict("admitted") },
		} {
			before := st.latest.Load()
			if err := call(); err != nil {
				t.Fatalf("paced %v, call %d: %v", paced, i, err)
			}
			if st.latest.Load() == before || !record(0) {
				t.Fatalf("paced %v, call %d staged nothing", paced, i)
			}
		}
		failed := 2
		if _, err := c.FailChannel(failed); err != nil {
			t.Fatal(err)
		}
		rebuilt := 0
		for ch := range c.Channels() {
			if ch != failed && record(ch) {
				rebuilt++
			}
		}
		if rebuilt == 0 {
			t.Fatalf("paced %v: no survivor rebuilt for the failover", paced)
		}
		cancel()
		for _, s := range streams {
			for range s {
			}
		}

		reclaimed := 0
		for ch, slots := range served {
			var air airing
			for T, slot := range slots {
				if slot.T != T {
					t.Fatalf("channel %d served slot %d as slot %d", ch, T, slot.T)
				}
				if T == 0 || slot.Generation != air.gen.id {
					next := airing{gen: staged[ch][slot.Generation], from: T}
					switch {
					case next.gen == nil:
						t.Fatalf("channel %d slot %d: generation %d is none a call staged", ch, T, slot.Generation)
					case air.gen != nil && (next.from-air.from)%air.gen.program.DataCycle() != 0:
						t.Fatalf("channel %d: generation %d went on the air at slot %d, %d slots into generation %d's %d-slot cycle",
							ch, next.gen.id, T, (next.from-air.from)%air.gen.program.DataCycle(), air.gen.id, air.gen.program.DataCycle())
					}
					air = next
				}
				want, wantReclaimed := air.at(T)
				if want.File != slot.File || want.Seq != slot.Seq || want.Block != slot.Block ||
					len(want.Payload) != len(slot.Payload) || len(want.Payload) > 0 && &want.Payload[0] != &slot.Payload[0] {
					t.Fatalf("channel %d slot %d: served %s/%d, generation %d from slot %d sends %s/%d there",
						ch, T, slot.File, slot.Seq, air.gen.id, air.from, want.File, want.Seq)
				}
				local := T - air.from
				file, seq := air.gen.emission.BlockAt(local)
				if file == Idle {
					if slot.Block != nil || slot.File != "" || wantReclaimed {
						t.Fatalf("channel %d slot %d: the emission is idle there, the air carries %q", ch, T, slot.File)
					}
					continue
				}
				name, width := air.gen.emission.Files[file].Name, air.gen.emission.Files[file].N
				_, rng, _ := air.gen.srv.Source(name)
				if slot.File != name || slot.Seq != rng.Index*width+seq {
					t.Fatalf("channel %d slot %d: served %s/%d, the emission names %s at position %d of range %d",
						ch, T, slot.File, slot.Seq, name, seq, rng.Index)
				}
				if wantReclaimed != (air.gen.program.FileAt(local) == Idle) {
					t.Fatalf("channel %d slot %d: reclaimed %v, the program schedules file %d there", ch, T, wantReclaimed, air.gen.program.FileAt(local))
				}
				if wantReclaimed {
					reclaimed++
				}
			}
		}
		if paced != (reclaimed > 0) {
			t.Fatalf("paced %v: %d reclaimed slots served", paced, reclaimed)
		}
	}
}
