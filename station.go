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
	// from; it increments each time an Admit or Evict takes effect at a
	// data-cycle boundary.
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
type generation struct {
	id       int
	files    []FileSpec
	program  *Program
	emission *Program // what is served: the program itself unless paced (see Station.emission)
	srv      *server.Server
	cycle    int // data cycle of program and emission alike, the admission boundary
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

	// buildMu serializes mutations (Admit, Evict); mu guards the
	// generation pointers and the serving flag. Builds run outside mu
	// so the serve loop never waits on a scheduler.
	buildMu sync.Mutex
	mu      sync.Mutex
	gen     *generation // guarded by mu
	pending *generation // guarded by mu
	nextID  int         // guarded by buildMu
	serving bool        // guarded by mu
	// replicaOnly names the files a cluster station carries behind
	// another live channel, which plans their spare air
	// (Cluster.replicaOnlyLocked); guarded by buildMu.
	replicaOnly map[string]bool
	// ranges holds, for each replicated file of a cluster station, the
	// share of the file's code this channel sends (see Cluster); guarded
	// by buildMu.
	ranges map[string]server.Range
	// contents is the authoritative dispersal source, owned by the
	// station; guarded by buildMu.
	contents map[string][]byte
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
		bandwidth:   bw,
		schedulers:  cfg.schedulers,
		layout:      cfg.layout,
		interval:    cfg.interval,
		buffer:      cfg.buffer,
		contents:    cfg.contents,
		qos:         map[string]qosEntry{},
		replicaOnly: cfg.replicaOnly,
		ranges:      cfg.ranges,
	}
	if st.interval > 0 {
		st.clock = wallClock{time.NewTimer(st.interval)} // Serve is single-flight: one timer does
	}
	gen, err := st.build(cfg.files, nil)
	if err != nil {
		return nil, err
	}
	st.gen = gen
	return st, nil
}

// build constructs a new program generation for the file set at the
// station's bandwidth, using its layout and scheduler chain, and
// rejects a program that would stretch an issued contract. Files whose
// contents and dispersal parameters are those they have in base (the
// server of the generation the change builds on; nil in the
// constructor) keep base's encoded blocks: only what changed is
// dispersed. Caller must hold buildMu (or be the constructor).
//
//pinlint:cycle-boundary
//pinlint:holds buildMu
func (st *Station) build(files []FileSpec, base *server.Server) (*generation, error) {
	start := time.Now()
	prog, err := buildProgram(files, st.bandwidth, st.layout, st.schedulers)
	if err == nil {
		err = st.verifyContracts(prog)
	}
	if err != nil {
		return nil, err
	}
	emission, err := st.emission(prog, files, st.replicaOnly)
	if err != nil {
		return nil, err
	}
	srv, err := server.NewSplit(prog, st.contents, st.ranges, base)
	if err != nil {
		return nil, err
	}
	stBuildMicros.Observe(uint64(time.Since(start).Microseconds()))
	stFilesEncoded.Add(uint64(srv.Encoded()))
	st.nextID++
	return &generation{
		id:       st.nextID,
		files:    files,
		program:  prog,
		emission: emission,
		srv:      srv,
		cycle:    prog.DataCycle(),
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

// reclaimExcept makes replicaOnly the files a paced station plans no
// spare air for. Where the set changed, the latest generation is staged
// again with its emission planned anew — same program, frames and
// contracts, no solve, no encode — for the next data-cycle boundary.
//
//pinlint:cycle-boundary
func (st *Station) reclaimExcept(replicaOnly map[string]bool) error {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	if st.interval == 0 || maps.Equal(st.replicaOnly, replicaOnly) {
		return nil
	}
	gen := *st.latest()
	emission, err := st.emission(gen.program, gen.files, replicaOnly)
	if err == nil {
		st.replicaOnly = replicaOnly
		st.nextID++
		gen.id, gen.emission = st.nextID, emission
		st.stage(&gen)
	}
	return err
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
		close(out)
		st.mu.Lock()
		st.serving = false
		st.mu.Unlock()
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
		traceRing.Emit(obs.SlotServed, -1, slot.Block.FileID, uint64(t), uint64(gen.id))
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
	return st.admitRange(f, contents, server.Range{})
}

// admitRange is Admit for one range of the file's code: how
// Cluster.FailChannel re-admits a file planned on several channels.
//
//pinlint:cycle-boundary
func (st *Station) admitRange(f FileSpec, contents []byte, r server.Range) error {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	return st.admit(f, contents, r, nil)
}

// admit is Admit and Negotiate under buildMu: admission control, the
// candidate's contents installed — and the range of its code to send,
// when Cluster.FailChannel re-admits a file planned on several channels —
// the generation rebuilt (which holds it to every issued contract) and
// put to accept (nil accepts), then staged. Any rejection restores the
// contents and leaves the program and the contracts as they were.
//
//pinlint:cycle-boundary
//pinlint:holds buildMu
func (st *Station) admit(f FileSpec, contents []byte, r server.Range, accept func(*generation) error) error {
	base := st.latest()
	for _, existing := range base.files {
		if existing.Name == f.Name {
			return fmt.Errorf("pinbcast: file %q already broadcast: %w", f.Name, ErrBadSpec)
		}
	}
	files, err := rtdb.Admit(base.files, f, st.bandwidth)
	if err != nil {
		return err
	}
	prior, had := st.contents[f.Name]
	st.contents[f.Name] = contents
	if r.Of > 1 {
		st.ranges[f.Name] = r
	}
	gen, err := st.build(files, base.srv)
	if err == nil && accept != nil {
		err = accept(gen)
	}
	if err != nil {
		delete(st.ranges, f.Name)
		if had {
			st.contents[f.Name] = prior
		} else {
			delete(st.contents, f.Name)
		}
		return err
	}
	st.stage(gen)
	return nil
}

// Evict removes a file from the broadcast at the next data-cycle
// boundary, releasing its bandwidth share. Evicting an unknown file or
// the last file wraps ErrBadSpec; evicting a file some issued contract
// still reads wraps ErrAdmission (release the contract first).
func (st *Station) Evict(name string) error {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	base := st.latest()
	files := make([]FileSpec, 0, len(base.files))
	for _, f := range base.files {
		if f.Name != name {
			files = append(files, f)
		}
	}
	switch {
	case len(files) == len(base.files):
		return fmt.Errorf("pinbcast: file %q not broadcast: %w", name, ErrBadSpec)
	case len(files) == 0:
		return fmt.Errorf("pinbcast: cannot evict the last file %q: %w", name, ErrBadSpec)
	}
	gen, err := st.build(files, base.srv)
	if err != nil {
		return err
	}
	delete(st.contents, name)
	delete(st.ranges, name)
	st.stage(gen)
	return nil
}

// latest returns the generation new mutations build on: the staged one
// if a swap is pending, else the active one. Caller must hold buildMu.
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
