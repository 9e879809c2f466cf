package pinbcast

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"pinbcast/internal/core"
	"pinbcast/internal/obs"
	"pinbcast/internal/reclaim"
	"pinbcast/internal/rtdb"
	"pinbcast/internal/server"
)

// Slot is one emission of the broadcast loop: slot T of the infinite
// program carries one AIDA block of one file, or nothing when the
// program leaves the slot idle — except on a paced station, which sends
// a further block of one of its files in most such slots (see
// WithSlotInterval and Station.Emission).
type Slot struct {
	// T is the absolute slot index since Serve started, across program
	// generations.
	T int
	// Generation identifies the broadcast program the slot was emitted
	// from. Ids number the generations the station built — each Admit,
	// Evict and Negotiate, a FailChannel that changes the station, and a
	// Negotiate whose contract refuses the build take one — so they only
	// grow, and one replaced while staged never airs. A new generation
	// takes effect at a data-cycle boundary.
	Generation int
	// File is the name of the file whose block occupies the slot, or ""
	// for an idle slot: the file the program schedules there, or in a
	// slot the program leaves idle the one reclaiming it.
	File string
	// Seq is the dispersed block sequence number (meaningless for idle
	// slots), Block.Seq as an int: the station's k-th transmission of a
	// file, scheduled or reclaimed, carries the block at position k mod N
	// of its rotation — Emission().BlockAt names the position, which is
	// the block's number except on a cluster channel that sends another
	// range of a replicated file's code (see Cluster).
	Seq int
	// Block is the self-identifying block, nil for idle slots.
	Block *Block
	// Payload is the marshaled block as transmitted on the wire, nil
	// for idle slots. It is the station's cached wire form, shared
	// across emissions and generations, and Block.Payload aliases it
	// past the header: copy before mutating either.
	Payload []byte
}

// generation is one immutable build of the broadcast pipeline: a
// program, what is served for it, its dispersed database and file set.
// It is the station's whole file state: each file's contents and the
// range of its code the station sends are srv's (server.Source).
type generation struct {
	id       int
	files    []FileSpec
	program  *Program
	emission *Program // what is served: the program itself unless paced (see Station.emission)
	srv      *server.Server
	cycle    int // data cycle of program and emission alike, the admission boundary
	// replicaOnly names the files of a cluster station whose spare air
	// another live channel plans (Cluster.replicaOnlyLocked).
	replicaOnly map[string]bool
}

// Station is a long-lived broadcast-disk service: it owns schedule
// construction (through a configurable scheduler chain), the dispersed
// file database, and a context-aware streaming broadcast loop. Files
// can be admitted and evicted online; changes take effect at the next
// data-cycle boundary (§2.3), where the outgoing program's block
// rotation ends; a retrieval in flight across the swap is bounded by
// one window per generation it touched. A paced station (WithSlotInterval)
// also fills the slots its program leaves idle: what it serves is its
// Emission, planned per generation and changed at the same boundary.
//
// A Station is safe for concurrent use: Admit and Evict may be called
// while Serve streams.
type Station struct {
	bandwidth  int
	schedulers []Scheduler
	layout     Layout
	interval   time.Duration
	buffer     int
	clock      clock // nil unless paced; the pacing tests swap in a fake

	// buildMu serializes mutations (rebuild); mu guards the generation
	// pointers and the serving flag. Builds run outside mu so the serve
	// loop never waits on a scheduler.
	buildMu sync.Mutex
	mu      sync.Mutex
	gen     *generation // guarded by mu
	pending *generation // guarded by mu
	nextID  int         // guarded by buildMu
	serving bool        // guarded by mu
	// qos holds the issued QoS contracts (AdmitTxn, Negotiate), keyed
	// by contract name; guarded by mu (mutations additionally
	// serialized by buildMu).
	qos map[string]qosEntry
}

// New constructs a Station from functional options. At least one file
// with contents is required; bandwidth defaults to the Equation-1/2
// sizing; the scheduler chain defaults to the paper's portfolio.
//
//	st, err := pinbcast.New(
//		pinbcast.WithFile(pinbcast.FileSpec{Name: "traffic", Blocks: 4, Latency: 8, Faults: 1}, bulletin),
//		pinbcast.WithFile(pinbcast.FileSpec{Name: "map", Blocks: 8, Latency: 40}, tiles),
//	)
func New(opts ...Option) (*Station, error) {
	cfg := &stationConfig{contents: map[string][]byte{}, ranges: map[string]server.Range{}}
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if err := core.ValidateAll(cfg.files); err != nil {
		return nil, err
	}
	bw := cfg.bandwidth
	if bw == 0 {
		bw = core.SufficientBandwidth(cfg.files)
	}
	st := &Station{
		bandwidth:  bw,
		schedulers: cfg.schedulers,
		layout:     cfg.layout,
		interval:   cfg.interval,
		buffer:     cfg.buffer,
		qos:        map[string]qosEntry{},
	}
	if st.interval > 0 {
		st.clock = wallClock{time.NewTimer(st.interval)} // Serve is single-flight: one timer does
	}
	gen, err := st.build(cfg.files, cfg.replicaOnly, cfg.contents, cfg.ranges)
	if err != nil {
		return nil, err
	}
	st.gen = gen
	return st, nil
}

// build constructs a new program generation for the file set at the
// station's bandwidth, using its layout and scheduler chain, and
// rejects a program that would stretch an issued contract. The files
// contents names are dispersed from it, sending their ranges of it
// (server.NewSplit); every other file is sent as the first from server
// sends it, its encoded blocks carried over. Caller must hold buildMu
// (or be the constructor).
//
//pinlint:cycle-boundary
//pinlint:holds buildMu
func (st *Station) build(files []FileSpec, replicaOnly map[string]bool, contents map[string][]byte, ranges map[string]server.Range, from ...*server.Server) (*generation, error) {
	start := time.Now()
	prog, err := buildProgram(files, st.bandwidth, st.layout, st.schedulers)
	if err == nil {
		err = st.verifyContracts(prog)
	}
	if err != nil {
		return nil, err
	}
	emission, err := st.emission(prog, files, replicaOnly)
	if err != nil {
		return nil, err
	}
	srv, err := server.NewSplit(prog, contents, ranges, from...)
	if err != nil {
		return nil, err
	}
	stBuildMicros.Observe(uint64(time.Since(start).Microseconds()))
	stFilesEncoded.Add(uint64(srv.Encoded()))
	st.nextID++
	return &generation{
		id:          st.nextID,
		files:       files,
		program:     prog,
		emission:    emission,
		srv:         srv,
		cycle:       prog.DataCycle(),
		replicaOnly: replicaOnly,
	}, nil
}

// emission returns what the station puts on the air for prog: prog
// itself when consumer-paced (an idle slot wastes air only where slots
// are time-division) and when paced prog's slot table with the idle
// slots filled by reclaim.Plan for all of files but the replicaOnly.
//
// Every promise of prog holds on it. Scheduled slots keep their file, so
// a window of B·Tᵢ slots still holds the mᵢ+rᵢ transmissions prog put
// there. The filled table is a Program, so the file's k-th transmission
// on the air, scheduled or reclaimed, carries block k mod Nᵢ: any
// Nᵢ ≥ mᵢ+rᵢ consecutive ones are distinct, those of a window among
// them, and a retrieval losing f ≤ rᵢ blocks ends on the (mᵢ+f)-th it
// hears, never later here than on prog. Whole rotations are reclaimed,
// so the data cycle, the swap and drain boundary, is prog's.
func (st *Station) emission(prog *Program, files []FileSpec, replicaOnly map[string]bool) (*Program, error) {
	if st.interval == 0 {
		return prog, nil
	}
	specs := slices.DeleteFunc(slices.Clone(files), func(f FileSpec) bool { return replicaOnly[f.Name] })
	filled := reclaim.Plan(prog, specs, st.bandwidth).Slots
	emission, err := core.NewProgram(prog.Files, filled, prog.Bandwidth, prog.Origin+"+reclaim")
	if err == nil && emission.DataCycle() != prog.DataCycle() {
		err = fmt.Errorf("data cycle %d, the program's is %d", emission.DataCycle(), prog.DataCycle())
	}
	if err != nil {
		return nil, fmt.Errorf("pinbcast: internal error: reclaimed emission: %w", err)
	}
	for _, f := range files {
		i, window := prog.FileIndex(f.Name), st.bandwidth*f.Latency
		// Every window prog keeps: a layout may bound nothing.
		if err := emission.VerifyWindows(i, f.Demand(), window); err != nil && prog.VerifyWindows(i, f.Demand(), window) == nil {
			return nil, fmt.Errorf("pinbcast: internal error: reclaimed emission: %w", err)
		}
	}
	return emission, nil
}

// Program returns the broadcast program of the active generation.
func (st *Station) Program() *Program {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen.program
}

// Emission returns what the active generation puts on the air, slot for
// slot: Program itself on a consumer-paced station, on a paced one
// (WithSlotInterval) the same program with its idle slots filled, in
// bursts per file where that shortens the expected retrieval.
// Simulate, LatencyProfile and WithSchedule take it like any Program;
// contracts and admission read Program: a reclaimed slot is promised to
// nobody.
func (st *Station) Emission() *Program {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen.emission
}

// Bandwidth returns the channel bandwidth in blocks per time unit the
// station was built at (fixed for the station's lifetime; admission
// control preserves guarantees at this bandwidth).
func (st *Station) Bandwidth() int { return st.bandwidth }

// Generation returns the identifier of the active program generation.
func (st *Station) Generation() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen.id
}

// Files returns the file specifications of the active generation.
func (st *Station) Files() []FileSpec {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]FileSpec(nil), st.gen.files...)
}

// Directory returns the mapping from stable broadcast file identifiers
// to file names for the active generation — the metadata a client needs
// to resolve requests against the self-identifying block stream.
// Identifiers are name-derived, so they remain valid across program
// generations.
//
// The returned map is the generation's cached immutable directory,
// shared across calls so per-slot callers allocate nothing: treat it as
// read-only. A later Admit or Evict produces a new generation with a
// new map; maps already handed out are never mutated.
func (st *Station) Directory() map[uint32]string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen.srv.Names()
}

// Serve starts the broadcast loop and returns the slot stream. The
// loop runs until ctx is cancelled, then closes the channel. Delivery
// is consumer-paced unless WithSlotInterval was given. Only one Serve
// loop may be active at a time; a second call returns ErrServing.
//
// Idle program slots are delivered as Slots with a nil Block so that
// consumers observe real slot timing (a paced station leaves few: see
// WithSlotInterval).
//
// A paced stream never skips a slot: a consumer that stops reading
// stalls the loop, and on resuming gets the buffered slots, then those
// that fell due meanwhile back to back — or, past pacerMaxBehind
// intervals, a schedule restarted then (see WithSlotInterval).
func (st *Station) Serve(ctx context.Context) (<-chan Slot, error) {
	st.mu.Lock()
	if st.serving {
		st.mu.Unlock()
		return nil, ErrServing
	}
	st.serving = true
	st.mu.Unlock()

	out := make(chan Slot, st.buffer)
	go st.serveLoop(ctx, out)
	return out, nil
}

// pacerMaxBehind bounds the catch-up burst of a late paced serve loop.
const pacerMaxBehind = 64

// pacer schedules paced slots on absolute deadlines: slot k since the
// epoch is due at epoch + (k+1)·interval, however late slot k-1 left,
// so a late wake-up costs lateness and never a slot or the phase.
type pacer struct {
	interval time.Duration
	due      time.Time // when the next slot may leave
}

// next schedules one slot, asked at time now. Early, it returns the
// wait until the slot is due; late, no wait and the lateness, so a loop
// that fell behind emits its backlog back to back and regains its phase.
// Over pacerMaxBehind intervals late it re-anchors the epoch at now.
//
//pinlint:hotpath
func (p *pacer) next(now time.Time) (wait, late time.Duration, resynced bool) {
	late = now.Sub(p.due)
	if resynced = late > pacerMaxBehind*p.interval; resynced {
		p.due = now
	}
	p.due = p.due.Add(p.interval)
	if late < 0 {
		return -late, 0, false
	}
	return 0, late, resynced
}

// clock is the paced serve loop's time source: the wall clock and one
// reused timer in production, a hand-advanced fake in the pacing tests.
type clock interface {
	Now() time.Time
	// SleepUntil returns how far past due it woke; !ok if ctx ended first.
	SleepUntil(ctx context.Context, due time.Time) (late time.Duration, ok bool)
}

type wallClock struct{ timer *time.Timer }

func (wallClock) Now() time.Time { return time.Now() }

//pinlint:hotpath
func (c wallClock) SleepUntil(ctx context.Context, due time.Time) (time.Duration, bool) {
	c.timer.Reset(time.Until(due))
	select {
	case <-ctx.Done():
		return 0, false
	case <-c.timer.C:
		return time.Since(due), true
	}
}

// serveLoop is the per-slot broadcast path; BenchmarkStationServe
// asserts it streams at 0 allocs/op in steady state.
//
//pinlint:hotpath
func (st *Station) serveLoop(ctx context.Context, out chan<- Slot) {
	defer func() {
		// Free the station before the stream ends, so a caller that has
		// drained it can Serve again at once.
		st.mu.Lock()
		st.serving = false
		st.mu.Unlock()
		close(out)
	}()
	clk, pace := st.clock, pacer{interval: st.interval}
	if clk != nil {
		pace.due = clk.Now().Add(st.interval)
	}
	localT := 0 // slot index within the active generation
	for t := 0; ; t++ {
		st.mu.Lock()
		// Program changes take effect exactly at data-cycle boundaries:
		// the outgoing block rotation ends, the incoming starts aligned.
		// A window that began early enough in the cycle completes; a
		// retrieval straddling the swap is bounded by one window per
		// generation it touched (bdload finding 6, ROADMAP oracle item).
		if st.pending != nil && localT%st.gen.cycle == 0 {
			st.gen = st.pending
			st.pending = nil
			localT = 0
			stSwaps.Inc()
		}
		gen := st.gen
		st.mu.Unlock()

		slot := Slot{T: t, Generation: gen.id}
		file, seq := gen.emission.BlockAt(localT)
		if file != core.Idle {
			slot.File = gen.emission.Files[file].Name
			slot.Block, slot.Payload = gen.srv.Block(file, seq)
			slot.Seq = int(slot.Block.Seq)
		}
		reclaimed := file != core.Idle && gen.program.FileAt(localT) == core.Idle
		localT++

		if clk != nil {
			now := clk.Now()
			wait, late, resynced := pace.next(now)
			if wait > 0 {
				var ok bool
				if late, ok = clk.SleepUntil(ctx, now.Add(wait)); !ok {
					return
				}
			}
			stLateness.Observe(uint64(late.Microseconds()))
			if resynced {
				stResyncs.Inc()
			}
		}
		select {
		case <-ctx.Done():
			return
		case out <- slot:
		}
		// Counted once on air: a slot cancelled mid-wait was never served.
		stSlots.Inc()
		if slot.Block == nil {
			stIdleSlots.Inc()
			continue
		}
		if reclaimed {
			stReclaimed.Inc()
		}
		traceRing.Emit(obs.SlotServed, -1, slot.Block.FileID, uint8(slot.Seq), uint64(t), uint64(gen.id))
	}
}

// Admit adds a file to the broadcast online. The candidate passes
// density-based admission control at the station's bandwidth (§1's
// admission-control discipline: it joins only if every already-admitted
// guarantee is preserved), the rebuilt program is verified against
// every issued QoS contract, and the swap happens at the next
// data-cycle boundary of the running broadcast (immediately when the
// station is not serving). Rejections wrap ErrAdmission; invalid
// candidates wrap ErrBadSpec. Use Negotiate to admit a file and receive
// its own service contract.
//
// From here on contents belongs to the station and must not be mutated:
// the file is dispersed once, later generations carry its encoded
// blocks over, and the slice itself is how the station knows the bytes
// again. To change a file, Evict it and Admit a new slice.
func (st *Station) Admit(f FileSpec, contents []byte) error {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	return st.rebuild(change{add: []FileSpec{f}, contents: map[string][]byte{f.Name: contents}})
}

// Evict removes a file from the broadcast at the next data-cycle
// boundary, releasing its bandwidth share. Evicting an unknown file or
// the last file wraps ErrBadSpec; evicting a file some issued contract
// still reads wraps ErrAdmission (release the contract first).
func (st *Station) Evict(name string) error {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	return st.rebuild(change{evict: name})
}

// change is one edit of a station's file set, the input of rebuild.
type change struct {
	add         []FileSpec
	contents    map[string][]byte       // of each added file
	ranges      map[string]server.Range // of each added file's code to send; absent, the whole code
	evict       string                  // "" evicts nothing
	replicaOnly map[string]bool         // nil keeps the latest generation's
	carry       []*server.Server        // further servers an added file's frames may be carried from
	accept      func(*generation) error // may refuse the built generation; nil accepts
}

// rebuild applies a change to the latest generation. Each added file
// passes density-based admission at the station's bandwidth, and the new
// file set is built (which holds it to every issued contract), put to
// accept and staged; the files the latest generation carries keep its
// contents, ranges and frames. A change of a paced station's
// replica-only set alone keeps the latest program, frames and contracts
// — no solve, no encode — and plans its emission anew; a change that
// alters nothing on the air builds nothing. Nothing is written before
// the stage, so a rejected change leaves the station as it was.
//
//pinlint:cycle-boundary
//pinlint:holds buildMu
func (st *Station) rebuild(ch change) (err error) {
	base := st.latest()
	replicaOnly, files := base.replicaOnly, base.files
	if ch.replicaOnly != nil && st.interval > 0 {
		replicaOnly = ch.replicaOnly
	}
	for _, f := range ch.add {
		if slices.ContainsFunc(files, func(g FileSpec) bool { return g.Name == f.Name }) {
			return fmt.Errorf("pinbcast: file %q already broadcast: %w", f.Name, ErrBadSpec)
		}
		if files, err = rtdb.Admit(files, f, st.bandwidth); err != nil {
			return err
		}
	}
	if ch.evict != "" {
		i := slices.IndexFunc(files, func(f FileSpec) bool { return f.Name == ch.evict })
		switch {
		case i < 0:
			return fmt.Errorf("pinbcast: file %q not broadcast: %w", ch.evict, ErrBadSpec)
		case len(files) == 1:
			return fmt.Errorf("pinbcast: cannot evict the last file %q: %w", ch.evict, ErrBadSpec)
		}
		files = slices.Delete(slices.Clone(files), i, i+1)
	}

	var gen *generation
	switch {
	case len(ch.add) > 0 || ch.evict != "":
		gen, err = st.build(files, replicaOnly, ch.contents, ch.ranges, append([]*server.Server{base.srv}, ch.carry...)...)
	case maps.Equal(replicaOnly, base.replicaOnly):
		return nil
	default:
		next := *base
		if next.emission, err = st.emission(base.program, base.files, replicaOnly); err != nil {
			return err
		}
		st.nextID++
		next.id, next.replicaOnly, gen = st.nextID, replicaOnly, &next
	}
	if err == nil && ch.accept != nil {
		err = ch.accept(gen)
	}
	if err == nil {
		st.stage(gen)
	}
	return err
}

// latest returns the generation new mutations build on: the staged one
// if a swap is pending, else the active one. A caller that builds on it
// must hold buildMu; without, it reads a snapshot.
func (st *Station) latest() *generation {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pending != nil {
		return st.pending
	}
	return st.gen
}

// stage installs a built generation: immediately when idle, or as the
// pending swap picked up by the serve loop at the next data-cycle
// boundary. Caller must hold buildMu.
//
//pinlint:cycle-boundary
func (st *Station) stage(gen *generation) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.serving {
		st.pending = gen
	} else {
		st.gen = gen
		st.pending = nil
	}
}
