package pinbcast

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"pinbcast/internal/server"
	"pinbcast/internal/workload"
	"pinbcast/internal/zeroalloc"
)

// freeClock is the pacing tests' clock with nobody holding it: every
// wait is over at once, so a paced station takes every paced branch of
// the serve loop and still streams as fast as it is read.
type freeClock struct{ now time.Time }

func (c *freeClock) Now() time.Time { return c.now }

func (c *freeClock) SleepUntil(_ context.Context, due time.Time) (time.Duration, bool) {
	c.now = due
	return 0, true
}

// station builds a station from opts, consumer-paced or paced on a
// freeClock.
func station(t testing.TB, paced bool, opts ...Option) *Station {
	t.Helper()
	if paced {
		opts = append(opts[:len(opts):len(opts)], WithSlotInterval(pacerTestInterval))
	}
	st, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if paced {
		st.clock = &freeClock{now: pacerTestEpoch}
	}
	return st
}

// daemonCluster builds the cluster bdserved boots for bdload's
// daemon-paced workload — sixteen files with r = 1 on two channels of
// the whole catalogue's Equation-2 bandwidth, the hottest quarter on
// both — with opts over that; consumer-paced, or every station paced on
// a freeClock of its own.
func daemonCluster(t testing.TB, paced bool, opts ...ClusterOption) (*Cluster, []FileSpec) {
	t.Helper()
	files := workload.Random(16, 6, 10, 80, 0, 1)
	for i := range files {
		files[i].Faults = 1
	}
	stOpts := []Option{WithSlotBuffer(256)}
	if paced {
		stOpts = append(stOpts, WithSlotInterval(pacerTestInterval))
	}
	c, err := NewCluster(append([]ClusterOption{
		WithChannels(2), WithReplicas(2), WithShardName(ShardBalanced),
		WithClusterBandwidth(SufficientBandwidth(files)),
		WithClusterFiles(files...), WithClusterContents(workload.Contents(files, 16, 1)),
		WithStationOptions(stOpts...),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if paced {
		for _, st := range c.stations {
			st.clock = &freeClock{now: pacerTestEpoch}
		}
	}
	return c, files
}

// air serves the first n slots of a station's latest generation, then
// stops and drains the stream. The station must not be serving.
func air(t testing.TB, st *Station, n int) []Slot {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stream, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]Slot, n)
	for i := range slots {
		slots[i] = <-stream
	}
	cancel()
	for range stream {
	}
	return slots
}

// reclaimTestSlots bounds how much of a long data cycle a test walks:
// the table repeats every period and the scheduled rotation is
// TestManyStartsExhaustiveDeadlines' subject, not these tests'.
const reclaimTestSlots = 1 << 13

// reclaimedPerPeriod counts the slots of a period the generation's
// program leaves idle and its emission fills.
func reclaimedPerPeriod(gen *generation) (n int) {
	for off, f := range gen.program.Slots {
		if f == Idle && gen.emission.Slots[off] != Idle {
			n++
		}
	}
	return n
}

// checkReclaimedEmission holds the slots a paced station emitted from
// local slot 0 of gen to the emission rule. Where the program schedules
// a file, exactly that file; where it is idle, nothing or a file of this
// generation — resolved by name, layouts reorder the table; everywhere
// the block at the position gen.emission.BlockAt names in the range of
// the file's code st sends, served from the generation's own frames. The rotation itself: a file's successive transmissions on the
// air, scheduled or reclaimed, carry successive blocks mod Nᵢ from block
// 0 on, across periods. Every file reclaims whole rotations per period,
// and fewer idle slots than the smallest dispersal width among the files
// st reclaims for go out empty.
func checkReclaimedEmission(t *testing.T, st *Station, gen *generation, slots []Slot) {
	t.Helper()
	prog := gen.program
	if gen.emission == prog || gen.emission.DataCycle() != gen.cycle {
		t.Fatalf("a paced generation serves %p with a data cycle of %d slots, its program is %p with %d",
			gen.emission, gen.emission.DataCycle(), prog, gen.cycle)
	}
	minWidth := 1 << 30
	for _, info := range prog.Files {
		if !gen.replicaOnly[info.Name] {
			minWidth = min(minWidth, info.N)
		}
	}
	sent := make([]int, len(prog.Files)) // transmissions so far, the rotation's position
	perFile := make([]int, len(prog.Files))
	empty := 0
	for lt, slot := range slots {
		if slot.Generation != gen.id {
			t.Fatalf("slot %d is of generation %d, want %d", slot.T, slot.Generation, gen.id)
		}
		scheduled := prog.FileAt(lt)
		file, seq := gen.emission.BlockAt(lt)
		_, sends, _ := gen.srv.Source(slot.File)
		switch {
		case file == Idle:
			if scheduled != Idle || slot.Block != nil {
				t.Fatalf("slot %d carries %q, the emission leaves it empty and the program schedules file %d", slot.T, slot.File, scheduled)
			}
			empty++
		case slot.File != prog.Files[file].Name || slot.Seq != sends.Index*prog.Files[file].N+seq || int(slot.Block.Seq) != slot.Seq:
			t.Fatalf("slot %d carries %s/%d, the emission names position %d of %s, range %d", slot.T, slot.File, slot.Seq, seq, prog.Files[file].Name, sends.Index)
		case scheduled != Idle && scheduled != file:
			t.Fatalf("slot %d carries %s, the program schedules %s", slot.T, slot.File, prog.Files[scheduled].Name)
		case prog.FileIndex(slot.File) != file:
			t.Fatalf("slot %d reclaimed by %q, which generation %d does not broadcast", slot.T, slot.File, gen.id)
		case seq != sent[file]%prog.Files[file].N:
			t.Fatalf("slot %d: transmission %d of %s carries block %d, not the next of its rotation of %d", slot.T, sent[file], slot.File, seq, prog.Files[file].N)
		}
		if file != Idle {
			if b, payload := gen.srv.Block(file, seq); slot.Block != b || &slot.Payload[0] != &payload[0] {
				t.Fatalf("slot %d: %s/%d is not served from the generation's own frames", slot.T, slot.File, seq)
			}
			if sent[file]++; scheduled == Idle {
				perFile[file]++
			}
		}
		if (lt+1)%prog.Period != 0 {
			continue
		}
		for i, n := range perFile {
			if n%prog.Files[i].N != 0 {
				t.Fatalf("period ending at slot %d: %q reclaimed %d slots, not whole rotations of %d", slot.T, prog.Files[i].Name, n, prog.Files[i].N)
			}
			perFile[i] = 0
		}
		if empty >= minWidth {
			t.Fatalf("period ending at slot %d: %d slots went out empty, a rotation of %d fits", slot.T, empty, minWidth)
		}
		empty = 0
	}
}

// reclaimCatalogues returns what the reclamation tests run over: first a
// small harmonic catalogue the searching schedulers solve themselves,
// with a dispersal width that makes the data cycle five periods, then
// seeded random ones of 8 to 64 files with r ∈ {0, 1, 2}.
func reclaimCatalogues() [][]FileSpec {
	catalogues := [][]FileSpec{{
		{Name: "a", Blocks: 2, Latency: 10, Faults: 1, DispersalWidth: 5},
		{Name: "b", Blocks: 3, Latency: 20},
		{Name: "c", Blocks: 1, Latency: 5, Faults: 2},
	}}
	for seed := int64(1); seed <= 4; seed++ {
		catalogues = append(catalogues, workload.Random(4<<seed, 8, 10, 80, 2, seed))
	}
	return catalogues
}

// TestReclaimedEmissionIsSupersetOfProgram is the correctness argument
// of reclamation: over seeded random catalogues under every built-in
// scheduler and layout, a paced station emits its program file for file
// plus best-effort blocks in the idle slots, all of a file's on one
// rotation, with the program's data cycle and every window the program
// keeps; the same station without a slot interval emits the program and
// nothing else.
func TestReclaimedEmissionIsSupersetOfProgram(t *testing.T) {
	portfolio, _ := LookupScheduler(SchedulerPortfolio)
	reclaimed := 0
	for c, files := range reclaimCatalogues() {
		base := []Option{WithFiles(files...), WithContents(workload.Contents(files, 16, int64(c))), WithSlotBuffer(256)}
		for _, layoutName := range LayoutNames() {
			schedulers := []string{SchedulerPortfolio}
			if layoutName == LayoutPinwheel {
				schedulers = SchedulerNames()
			}
			for _, schedName := range schedulers {
				if c > 0 && (schedName == SchedulerEDF || schedName == SchedulerExact) {
					continue // seconds of search on a random catalogue, to fall back to the portfolio
				}
				sched, _ := LookupScheduler(schedName)
				opts := append(base[:len(base):len(base)], WithLayout(mustLayout(t, layoutName)), WithSchedulers(sched, portfolio))
				paced := station(t, true, opts...)
				gen, prog := paced.gen, paced.gen.program
				n := (min(2*gen.cycle, reclaimTestSlots) + prog.Period - 1) / prog.Period * prog.Period
				checkReclaimedEmission(t, paced, gen, air(t, paced, n))
				reclaimed += reclaimedPerPeriod(gen)
				for _, f := range files {
					i, window := prog.FileIndex(f.Name), paced.bandwidth*f.Latency
					kept := prog.VerifyWindows(i, f.Demand(), window)
					if kept != nil && layoutName == LayoutPinwheel {
						t.Fatalf("catalogue %d %s/%s: the program misses its own window: %v", c, layoutName, schedName, kept)
					}
					if err := gen.emission.VerifyWindows(i, f.Demand(), window); err != nil && kept == nil {
						t.Fatalf("catalogue %d %s/%s: the emission misses a window the program keeps: %v", c, layoutName, schedName, err)
					}
				}

				for lt, slot := range air(t, station(t, false, opts...), n) {
					file, seq := prog.BlockAt(lt)
					if file == Idle && slot.Block == nil {
						continue
					}
					if file == Idle || slot.File != prog.Files[file].Name || slot.Seq != seq {
						t.Fatalf("catalogue %d %s/%s: unpaced slot %d carries %q/%d, not what the program says",
							c, layoutName, schedName, lt, slot.File, slot.Seq)
					}
				}
			}
		}
	}
	if reclaimed == 0 {
		t.Fatal("no catalogue left an idle slot to reclaim")
	}
}

// oracleLatency is a first piece of the ROADMAP's conformance oracle,
// and shares no code with client, core or rtdb: a listener tunes in at
// slot start of the emitted (file, block) sequence and needs m distinct
// blocks of file, while an adversary erases the next block that would
// help it, faults times over (optimal, because any m distinct blocks
// reconstruct). It returns the slots that takes, or more than were
// emitted when they do not hold a retrieval.
func oracleLatency(emitted []Slot, start int, file string, m, faults int) int {
	var have [256]bool
	for k, got := 0, 0; start+k < len(emitted); k++ {
		s := emitted[start+k]
		if s.Block == nil || s.File != file || have[s.Seq] {
			continue
		}
		if faults > 0 {
			faults--
			continue
		}
		have[s.Seq] = true
		if got++; got == m {
			return k + 1
		}
	}
	return len(emitted) + 1
}

// TestReclaimedEmissionDominatesProgram: from every start slot of a data
// cycle, fault-free and against the adversary with every file's r
// faults, the oracle's latency on the paced emission is at most its
// latency on the program alone, and where anything is reclaimed the
// mean is strictly lower. The last pair is channel 1 of the daemon
// cluster, which reclaims for some of its files only.
func TestReclaimedEmissionDominatesProgram(t *testing.T) {
	var pairs [][2]*Station
	for c, files := range reclaimCatalogues() {
		opts := []Option{WithFiles(files...), WithContents(workload.Contents(files, 16, int64(c))), WithSlotBuffer(256)}
		pairs = append(pairs, [2]*Station{station(t, true, opts...), station(t, false, opts...)})
	}
	pacedCluster, _ := daemonCluster(t, true)
	plainCluster, _ := daemonCluster(t, false)
	pairs = append(pairs, [2]*Station{pacedCluster.Station(1), plainCluster.Station(1)})
	if len(pacedCluster.Station(1).gen.replicaOnly) == 0 {
		t.Fatal("channel 1 of the daemon cluster reclaims for every file it carries")
	}
	for c, pair := range pairs {
		paced, plain, files := pair[0], pair[1], pair[0].gen.files
		starts := min(paced.gen.cycle, reclaimTestSlots)
		with, without := air(t, paced, 2*starts), air(t, plain, 2*starts)
		for _, adversary := range []bool{false, true} {
			var sumWith, sumWithout int
			for _, f := range files {
				faults := 0
				if adversary {
					faults = f.Faults
				}
				for start := 0; start < starts; start++ {
					a, b := oracleLatency(with, start, f.Name, f.Blocks, faults), oracleLatency(without, start, f.Name, f.Blocks, faults)
					if a > b || b > paced.bandwidth*f.Latency {
						t.Fatalf("catalogue %d, %q from slot %d with %d faults: %d slots paced, %d on the program alone, window %d",
							c, f.Name, start, faults, a, b, paced.bandwidth*f.Latency)
					}
					sumWith, sumWithout = sumWith+a, sumWithout+b
				}
			}
			if reclaimed := reclaimedPerPeriod(paced.gen); reclaimed > 0 && sumWith >= sumWithout {
				t.Fatalf("catalogue %d (adversary %v): %d slots reclaimed a period and the mean latency did not fall (%d against %d slots in all)",
					c, adversary, reclaimed, sumWith, sumWithout)
			}
		}
	}
}

// TestPacedClusterClosedLoopLatency is bdload's daemon-paced workload on
// no clock: the daemon cluster's emissions walked in lock-step under one
// closed-loop scan listener — files in seeded permutations, the next
// request tuned in the slot after the last completed, every home of the
// file collecting and the retrieval over on the slot that brings the
// union of what they sent to m distinct block numbers, as a MultiTuner
// pools. It guards, in the slot domain, what the wall-clock gate
// measures: latency over the window B·Tᵢ at the median and the 95th
// percentile (0.217 and 0.405 with every home sending the same blocks
// and the first to m of its own winning), and that a listener never
// hears a block twice, on one channel or across them.
func TestPacedClusterClosedLoopLatency(t *testing.T) {
	const retrievals = 20000
	c, files := daemonCluster(t, true)
	homes := c.Assignment()
	rng := rand.New(rand.NewSource(1))
	ratios := make([]float64, 0, retrievals)
	heard, duplicates := 0, 0
	for tune := 0; len(ratios) < retrievals; {
		for _, k := range rng.Perm(len(files)) {
			f, window := files[k], c.Station(0).Bandwidth()*files[k].Latency
			var have [256]bool // the block numbers held, whichever home sent them
			got := 0
			for lt := tune; got < f.Blocks; lt++ {
				if lt-tune >= window {
					t.Fatalf("%q requested at slot %d is not retrieved within its window of %d slots", f.Name, tune, window)
				}
				for _, ch := range homes[f.Name] {
					st := c.Station(ch)
					file, pos := st.Emission().BlockAt(lt)
					if file == Idle || st.Emission().Files[file].Name != f.Name || got == f.Blocks {
						continue
					}
					block, _ := st.gen.srv.Block(file, pos)
					if heard++; have[block.Seq] {
						duplicates++
					} else {
						have[block.Seq], got = true, got+1
					}
				}
				if got == f.Blocks {
					ratios = append(ratios, float64(lt-tune+1)/float64(window))
					tune = lt + 1
				}
			}
		}
	}
	slices.Sort(ratios)
	p50, p95 := ratios[len(ratios)/2], ratios[len(ratios)*95/100]
	t.Logf("p50 %.3f p95 %.3f of the window over %d retrievals, duplicates %d of %d blocks heard",
		p50, p95, len(ratios), duplicates, heard)
	if p50 > 0.205 || p95 > 0.39 || duplicates > 0 {
		t.Fatalf("want p50 ≤ 0.205, p95 ≤ 0.39 and no duplicate")
	}
}

// TestReclaimAcrossGenerationSwap: Admit and Evict while a paced station
// streams. Each swap lands on a data-cycle boundary of the outgoing
// generation, and from that slot on the incoming generation's own
// emission is the one in use, its rotations starting over: no slot,
// scheduled or reclaimed, carries a file the new generation does not
// broadcast.
func TestReclaimAcrossGenerationSwap(t *testing.T) {
	st := station(t, true,
		WithFiles(FileSpec{Name: "A", Blocks: 2, Latency: 10, Faults: 1}, FileSpec{Name: "B", Blocks: 3, Latency: 20}),
		WithContents(map[string][]byte{"A": []byte("file A: the hot bulletin"), "B": []byte("file B: the colder map, three blocks")}),
		WithSlotBuffer(16))
	old := st.gen
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for step, mutate := range []func() error{
		func() error { return st.Admit(FileSpec{Name: "C", Blocks: 1, Latency: 10}, []byte("file C: admitted")) },
		func() error { return st.Evict("A") },
	} {
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		next := st.latest()
		if next == old || next.emission == old.emission {
			t.Fatalf("step %d staged no generation of its own", step)
		}
		slot := <-stream
		for ; slot.Generation == old.id; slot = <-stream {
		}
		if slot.T%old.cycle != 0 {
			t.Fatalf("generation %d went live at slot %d, not on a %d-slot boundary", slot.Generation, slot.T, old.cycle)
		}
		slots := []Slot{slot}
		for len(slots) < 2*next.cycle {
			slots = append(slots, <-stream)
		}
		checkReclaimedEmission(t, st, next, slots)
		for _, slot := range slots {
			if step == 1 && slot.File == "A" {
				t.Fatalf("slot %d still carries the evicted file", slot.T)
			}
		}
		old = next
	}
	if reclaimedPerPeriod(old) == 0 {
		t.Fatal("the last generation reclaims nothing: the swap was not checked on reclaimed slots")
	}
}

// TestClusterFailoverPromotesReclaim: on the paced daemon cluster a
// replicated file is reclaimed for by its first home alone, which is
// also the channel FetchPlan ranks first; when that channel fails, the
// surviving home takes the file's spare air over at its next data-cycle
// boundary, with every window and every kept contract as before. Where
// no file is orphaned the promotion is the survivor's only change: one
// generation when paced, none when there is no air to plan.
func TestClusterFailoverPromotesReclaim(t *testing.T) {
	sent := func(p *Program, name string) int { return p.PerPeriod(p.FileIndex(name)) }
	c, files := daemonCluster(t, true, WithStationOptions(WithSlotBuffer(0)))
	homes, plan := c.Assignment(), c.FetchPlan()
	var replicated []string
	for _, f := range files {
		h := homes[f.Name]
		if len(h) < 2 {
			continue
		}
		replicated = append(replicated, f.Name)
		if plan[f.Name][0] != h[0] {
			t.Fatalf("FetchPlan ranks channel %d first for %q, channel %d reclaims for it", plan[f.Name][0], f.Name, h[0])
		}
		if replica := c.Station(h[1]); sent(replica.Emission(), f.Name) != sent(replica.Program(), f.Name) {
			t.Fatalf("channel %d reclaims for %q, which channel %d carries first", h[1], f.Name, h[0])
		}
	}
	if len(replicated) == 0 {
		t.Fatal("the daemon cluster replicates nothing")
	}
	promoted := replicated[0]
	primary, survivor := homes[promoted][0], homes[promoted][1]
	before, err := c.Negotiate(Txn{Name: "hot", Reads: replicated, Deadline: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streams, err := c.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st, stream := c.Station(survivor), streams[survivor]
	old := st.gen
	// The loop is then parked on slot 3 of generation 1, off any
	// boundary: whatever FailChannel stages goes live together.
	for i := 0; i < 3; i++ {
		<-stream
	}
	rep, err := c.FailChannel(primary)
	if err != nil {
		t.Fatal(err)
	}
	after, err := c.Contract("hot")
	if err != nil || !slices.Contains(rep.Kept, "hot") ||
		after.WorstLatencySlots != before.WorstLatencySlots || after.DegradedLatencySlots != before.DegradedLatencySlots {
		t.Fatalf("contract %+v became %+v (%v) over a failover its reads survive", before, after, err)
	}
	next := st.latest()
	slot := <-stream
	for ; slot.Generation == old.id; slot = <-stream {
	}
	if slot.Generation != next.id || slot.T%old.cycle != 0 {
		t.Fatalf("generation %d went live at slot %d, want %d on a %d-slot boundary", slot.Generation, slot.T, next.id, old.cycle)
	}
	slots := []Slot{slot}
	for n := (min(2*next.cycle, reclaimTestSlots) + next.program.Period - 1) / next.program.Period * next.program.Period; len(slots) < n; {
		slots = append(slots, <-stream)
	}
	checkReclaimedEmission(t, st, next, slots)
	if sent(next.emission, promoted) <= sent(next.program, promoted) {
		t.Fatalf("channel %d is the only home of %q and does not reclaim for it", survivor, promoted)
	}
	for _, f := range next.files {
		if err := next.emission.VerifyWindows(next.emission.FileIndex(f.Name), f.Demand(), st.bandwidth*f.Latency); err != nil {
			t.Fatal(err)
		}
	}

	for _, paced := range []bool{true, false} {
		c, files := daemonCluster(t, paced, WithReplicateHottest(16))
		st := c.Station(1)
		if len(files) != 16 || len(st.gen.replicaOnly) == 0 {
			t.Fatalf("channel 1 is the first home of all it carries: nothing to promote")
		}
		gen, want := st.Generation(), st.Generation()
		if paced {
			want++
		}
		if _, err := c.FailChannel(0); err != nil {
			t.Fatal(err)
		}
		if st.Generation() != want {
			t.Fatalf("paced %v: the survivor went from generation %d to %d, want %d", paced, gen, st.Generation(), want)
		}
	}
}

// TestSimulateOnEmissionMatchesPacedStation: the paced air is simulated
// by handing Simulate the station's Emission, nothing more. What
// Simulate's server sends is slot for slot what the station serves, and
// its clients end where a Receiver fed the live stream from slot 0 ends:
// the same results in the same order, latencies and bytes included. A
// receiver dozing on the emission loses nothing to its sleep.
func TestSimulateOnEmissionMatchesPacedStation(t *testing.T) {
	files := reclaimCatalogues()[1]
	contents := workload.Contents(files, 16, 1)
	st := station(t, true, WithFiles(files...), WithContents(contents), WithSlotBuffer(256))
	var reqs []Request
	for _, f := range files {
		reqs = append(reqs, Request{File: f.Name, Deadline: st.bandwidth * f.Latency})
	}
	sim, err := Simulate(SimConfig{Program: st.Emission(), Contents: contents, Clients: []ClientSpec{{Requests: reqs}}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(st.Emission(), contents)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recording{}
	for _, slot := range air(t, st, sim.Slots) {
		if !bytes.Equal(slot.Payload, srv.Emit(slot.T)) {
			t.Fatalf("slot %d: the station serves %s/%d, the simulated server something else", slot.T, slot.File, slot.Seq)
		}
		rec.Send(slot)
	}
	for _, opts := range [][]ReceiverOption{nil, {WithSchedule(st.Emission())}} {
		live, err := Subscribe(rec.Source(), append(opts, withRequests(reqs...))...)
		if err != nil {
			t.Fatal(err)
		}
		results, err := live.RunInto(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results, sim.Results) {
			t.Fatalf("a receiver on the paced stream ends with\n%+v\nSimulate on the emission with\n%+v", results, sim.Results)
		}
		if m := live.Metrics(); (m.Dozed > 0) != (opts != nil) || m.Slots != sim.Slots {
			t.Fatalf("receiver metrics %+v over %d simulated slots (dozing: %v)", m, sim.Slots, opts != nil)
		}
	}
	if sim.PerFile[files[0].Name].DeadlineMissed > 0 || sim.MissRatio() > 0 {
		t.Fatalf("the simulated paced air misses a window: %+v", sim.PerFile)
	}
}

// TestUnpacedEmissionIsTheProgram: with no slot interval there is no air
// to plan, and Emission is Program — the same pointer, whatever the
// layout; paced, it is a program of its own over the same file table.
func TestUnpacedEmissionIsTheProgram(t *testing.T) {
	files := reclaimCatalogues()[0]
	for _, layoutName := range LayoutNames() {
		opts := []Option{WithFiles(files...), WithContents(workload.Contents(files, 16, 0)), WithLayout(mustLayout(t, layoutName))}
		if st := station(t, false, opts...); st.Emission() != st.Program() {
			t.Fatalf("%s: an unpaced station serves %p, its program is %p", layoutName, st.Emission(), st.Program())
		}
		st := station(t, true, opts...)
		if e, p := st.Emission(), st.Program(); e == p || e.Period != p.Period || &e.Files[0] != &p.Files[0] {
			t.Fatalf("%s: a paced station serves %v for the program %v", layoutName, e, p)
		}
	}
}

// BenchmarkStationServe measures the streaming broadcast loop — slots
// drained per second from a Serve stream, the hot path of the Station
// service API, which must stay at 0 allocs/op — consumer-paced, and
// paced on a clock that never waits, where the loop also runs the pacer
// and serves an emission with the program's idle slots filled.
func BenchmarkStationServe(b *testing.B) {
	b.Run("unpaced", func(b *testing.B) { benchmarkStationServe(b, station(b, false, serveBenchOptions()...)) })
	b.Run("paced", func(b *testing.B) {
		st := station(b, true, serveBenchOptions()...)
		if reclaimed := reclaimedPerPeriod(st.gen); reclaimed*4 < st.gen.program.Period {
			b.Fatalf("%d of %d slots reclaimed: the paced case needs a quarter of the air idle", reclaimed, st.gen.program.Period)
		}
		benchmarkStationServe(b, st)
	})
}

// BenchmarkStationServePaced is the same stream paced at 100 µs a slot
// on the wall clock: rate_ratio is the achieved slot rate over the
// nominal one (1.0 when every slot leaves on its deadline), and the
// paced branch of the loop — clock read, pacer, timer reset — must stay
// at 0 allocs/op.
func BenchmarkStationServePaced(b *testing.B) {
	const interval = 100 * time.Microsecond
	benchmarkStationServe(b, station(b, false, append(serveBenchOptions(), WithSlotInterval(interval))...))
	b.ReportMetric(float64(b.N)*float64(interval)/float64(b.Elapsed()), "rate_ratio")
}

func serveBenchOptions() []Option {
	files := []FileSpec{
		{Name: "A", Blocks: 4, Latency: 8, Faults: 1},
		{Name: "B", Blocks: 8, Latency: 40},
	}
	return []Option{WithFiles(files...), WithContents(workload.Contents(files, 256, 5)), WithSlotBuffer(256)}
}

func benchmarkStationServe(b *testing.B, st *Station) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		b.Fatal(err)
	}
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		if _, ok := <-slots; !ok {
			b.Fatal("stream closed")
		}
	}
	check()
}
