package pinbcast

import (
	"context"
	"testing"
	"time"

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

// air serves the first n slots of a station that has not served yet.
func air(t testing.TB, st *Station, n int) []Slot {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]Slot, n)
	for i := range slots {
		slots[i] = <-stream
	}
	return slots
}

// reclaimTestSlots bounds how much of a long data cycle a test walks:
// the table repeats every period and the scheduled rotation is
// TestManyStartsExhaustiveDeadlines' subject, not these tests'.
const reclaimTestSlots = 1 << 13

// checkReclaimedEmission holds the slots a paced station emitted from
// local slot 0 of gen to the superset rule: where the program schedules
// a block, exactly that block; where it is idle, nothing or a block of a
// file of this generation — resolved by name, layouts reorder the table
// — served from the generation's own frames, every file reclaiming whole
// rotations per period and fewer idle slots than the smallest dispersal
// width going out empty.
func checkReclaimedEmission(t *testing.T, gen *generation, slots []Slot) {
	t.Helper()
	prog := gen.program
	if gen.fill == nil {
		t.Fatal("a paced generation has no reclaim table")
	}
	minWidth := prog.Files[0].N
	for _, info := range prog.Files {
		minWidth = min(minWidth, info.N)
	}
	perFile := make([]int, len(prog.Files))
	empty := 0
	for lt, slot := range slots {
		if slot.Generation != gen.id {
			t.Fatalf("slot %d is of generation %d, want %d", slot.T, slot.Generation, gen.id)
		}
		file, seq := prog.BlockAt(lt)
		switch {
		case file != Idle:
			if slot.File != prog.Files[file].Name || slot.Seq != seq {
				t.Fatalf("slot %d carries %s/%d, the program schedules %s/%d", slot.T, slot.File, slot.Seq, prog.Files[file].Name, seq)
			}
		case slot.Idle():
			empty++
		default:
			if file = prog.FileIndex(slot.File); file < 0 || slot.Seq < 0 || slot.Seq >= prog.Files[file].N {
				t.Fatalf("slot %d reclaimed by %q/%d, which generation %d does not broadcast", slot.T, slot.File, slot.Seq, gen.id)
			}
			seq = slot.Seq
			perFile[file]++
		}
		if file != Idle {
			if b, payload := gen.srv.Block(file, seq); slot.Block != b || &slot.Payload[0] != &payload[0] {
				t.Fatalf("slot %d: %s/%d is not served from the generation's own frames", slot.T, slot.File, seq)
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
// scheduler and layout, a paced station emits its program slot for slot
// plus best-effort blocks in the idle slots, and the same station
// without a slot interval emits the program and nothing else.
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
				checkReclaimedEmission(t, gen, air(t, paced, n))
				reclaimed += gen.fill.Reclaimed

				plain := station(t, false, opts...)
				if plain.gen.fill != nil {
					t.Fatal("an unpaced generation has a reclaim table")
				}
				for lt, slot := range air(t, plain, n) {
					file, seq := prog.BlockAt(lt)
					if file == Idle && slot.Idle() {
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
		if s.Idle() || s.File != file || have[s.Seq] {
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
// mean is strictly lower.
func TestReclaimedEmissionDominatesProgram(t *testing.T) {
	for c, files := range reclaimCatalogues() {
		opts := []Option{WithFiles(files...), WithContents(workload.Contents(files, 16, int64(c))), WithSlotBuffer(256)}
		paced, plain := station(t, true, opts...), station(t, false, opts...)
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
			if paced.gen.fill.Reclaimed > 0 && sumWith >= sumWithout {
				t.Fatalf("catalogue %d (adversary %v): %d slots reclaimed a period and the mean latency did not fall (%d against %d slots in all)",
					c, adversary, paced.gen.fill.Reclaimed, sumWith, sumWithout)
			}
		}
	}
}

// TestReclaimAcrossGenerationSwap: Admit and Evict while a paced station
// streams. Each swap lands on a data-cycle boundary of the outgoing
// generation, and from that slot on the incoming generation's own table
// is the one in use: no slot, scheduled or reclaimed, carries a file the
// new generation does not broadcast.
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
		if next == old || next.fill == old.fill {
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
		checkReclaimedEmission(t, next, slots)
		for _, slot := range slots {
			if step == 1 && slot.File == "A" {
				t.Fatalf("slot %d still carries the evicted file", slot.T)
			}
		}
		old = next
	}
	if old.fill.Reclaimed == 0 {
		t.Fatal("the last generation reclaims nothing: the swap was not checked on reclaimed slots")
	}
}

// BenchmarkStationServe measures the streaming broadcast loop — slots
// drained per second from a Serve stream, the hot path of the Station
// service API, which must stay at 0 allocs/op — consumer-paced, and
// paced on a clock that never waits, where the loop also runs the pacer
// and fills the program's idle slots from the reclaim table.
func BenchmarkStationServe(b *testing.B) {
	b.Run("unpaced", func(b *testing.B) { benchmarkStationServe(b, station(b, false, serveBenchOptions()...)) })
	b.Run("paced", func(b *testing.B) {
		st := station(b, true, serveBenchOptions()...)
		if fill := st.gen.fill; fill.Reclaimed*4 < st.gen.program.Period {
			b.Fatalf("%d of %d slots reclaimed: the paced case needs a quarter of the air idle", fill.Reclaimed, st.gen.program.Period)
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
