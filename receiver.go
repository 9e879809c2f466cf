package pinbcast

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"

	"pinbcast/internal/client"
	"pinbcast/internal/obs"
)

// Receiver is the client half of the broadcast-disk pair — the
// counterpart of Station. It subscribes to a slot stream through any
// Source, learns the broadcast directory, collects self-identifying
// AIDA blocks for its pending requests, reconstructs each file as soon
// as any M distinct blocks have arrived (so up to r lost transmissions
// per window are tolerated, §2.3), and tracks per-request deadlines.
// Reception faults can be injected (WithReceiverFaults), and a receiver
// that knows the broadcast schedule (WithSchedule, as if learned from a
// (1, m) air index) dozes through irrelevant slots, separating access
// latency from tuning time.
//
// A Receiver holds blocks for its pending requests and nothing else, as
// the paper's client does: a result leaves it when it is handed over
// (RunInto, or Results after Step), and a buffer handed back with
// Recycle becomes a later retrieval's. A long-lived receiver's memory is
// its open requests and one output buffer, however many retrievals it
// has served.
//
// A Receiver is single-goroutine: RunInto, Step, Results and Request
// must not be called concurrently.
type Receiver struct {
	src     Source
	cli     *client.Client
	fault   FaultModel
	channel int // trace-event label: the MultiTuner channel, -1 standing alone

	// corruptBuf is the reusable scratch an injected fault garbles into,
	// so the shared wire payload is never mutated and fault injection
	// does not allocate per corrupted slot.
	corruptBuf []byte

	schedule *Program
	// scheduleGen is the generation the schedule was observed under;
	// a swap in the stream disables dozing (the alignment is lost).
	scheduleGen int

	lastT int
	m     ReceiverMetrics

	// taken is the slice Results hands over, reused from call to call.
	taken []Result
}

// ReceiverMetrics counts what a receiver has seen and done. Slots vs
// Listened is the access-latency/tuning-time split of Imielinski et
// al.'s air indexing: a schedule-aware receiver dozes through slots
// that cannot serve it, so Listened — the energy cost — stays far
// below Slots while latency is unchanged.
type ReceiverMetrics struct {
	// Slots is the number of slots consumed from the source.
	Slots int
	// Listened counts slots the receiver actively listened to while
	// requests were pending (its tuning time).
	Listened int
	// Dozed counts slots skipped thanks to schedule knowledge.
	Dozed int
	// Blocks counts valid self-identifying blocks decoded.
	Blocks int
	// Corrupted counts blocks dropped for checksum failure.
	Corrupted int
	// Injected counts corruptions introduced by the receiver's own
	// fault model (a subset of Corrupted).
	Injected int
	// Unknown counts valid blocks of files absent from the directory.
	Unknown int
	// Reconstructions counts files rebuilt from dispersed blocks.
	Reconstructions int
}

// receiverConfig collects the options a Receiver is built from.
type receiverConfig struct {
	names    map[uint32]string
	requests []Request
	faults   []FaultModel // a Receiver's: at most one
	schedule *Program
}

// ReceiverOption configures a Receiver under construction: a
// ListenerOption, or WithSchedule.
type ReceiverOption interface {
	applyReceiver(*receiverConfig) error
}

// ListenerOption configures what a listener — a Receiver or a
// MultiTuner — knows and asks for: its directory, its requests and its
// reception faults. It is both a ReceiverOption and a MultiTunerOption.
type ListenerOption func(*receiverConfig) error

func (o ListenerOption) applyReceiver(c *receiverConfig) error { return o(c) }

// receiverOption is a ReceiverOption alone.
type receiverOption func(*receiverConfig) error

func (o receiverOption) applyReceiver(c *receiverConfig) error { return o(c) }

// WithDirectory supplies the id→name broadcast directory (a
// MultiTuner's: Cluster.Directory). Over the in-process transport the
// receiver also learns entries from the stream itself; over TCP (where
// the wire carries only the paper's self-identifying blocks) the
// directory is how requests by name are resolved. Merged over any
// entries already configured.
func WithDirectory(names map[uint32]string) ListenerOption {
	return func(c *receiverConfig) error {
		maps.Copy(c.names, names)
		return nil
	}
}

// WithRequest registers one file to retrieve by the given relative
// deadline in slots (0 = none). Deadline clocks start at the first slot
// the receiver observes; a MultiTuner's run per attachment, on the
// serving channel.
func WithRequest(file string, deadline int) ListenerOption {
	return func(c *receiverConfig) error {
		c.requests = append(c.requests, Request{File: file, Deadline: deadline})
		return nil
	}
}

// WithReceiverFaults injects reception fault models, one per source: a
// Receiver takes one and refuses more with ErrBadSpec, a MultiTuner
// exactly one per channel — independent media have independent fault
// processes, so stateful models (BurstFaults) must not be shared across
// channels. Slots a model corrupts reach the protocol as garbled blocks,
// which the checksum rejects — the client then simply waits for the
// next useful block (§2.3). Use BernoulliFaults, BurstFaults or
// SlotFaults; a nil model leaves its source fault-free.
func WithReceiverFaults(models ...FaultModel) ListenerOption {
	return func(c *receiverConfig) error {
		c.faults = append([]FaultModel(nil), models...)
		return nil
	}
}

// WithSchedule gives the receiver the broadcast program, as a client
// that has read a (1, m) air index would know it. A schedule-aware
// receiver dozes through slots that carry nothing it is waiting for:
// access latency is unchanged, tuning time (Metrics().Listened) drops
// to the slots that matter — the energy tradeoff of Imielinski,
// Viswanathan & Badrinath's indexing on air. The schedule must be the
// one the station actually serves; if the stream carries a generation
// swap (an online Admit/Evict re-aligned the program), the receiver
// falls back to continuous listening, as a real client would until it
// re-reads the index. The receiver decides from the schedule before it
// looks at the block: given a paced station's Program it sleeps through
// the reclaimed blocks, given its Emission it wakes for them too.
func WithSchedule(prog *Program) ReceiverOption {
	return receiverOption(func(c *receiverConfig) error {
		if prog == nil {
			return fmt.Errorf("pinbcast: nil schedule: %w", ErrBadSpec)
		}
		c.schedule = prog
		return nil
	})
}

// Subscribe tunes a new Receiver into a broadcast source at whatever
// slot the stream is on — the paper's client may arrive at an
// arbitrary point of the broadcast and still meets its latency window.
// Requests can be registered up front (WithRequest) or over time
// (Receiver.Request); RunInto drives the protocol until they complete.
func Subscribe(src Source, opts ...ReceiverOption) (*Receiver, error) {
	if src == nil {
		return nil, fmt.Errorf("pinbcast: nil source: %w", ErrBadSpec)
	}
	cfg := &receiverConfig{names: map[uint32]string{}}
	for _, opt := range opts {
		if err := opt.applyReceiver(cfg); err != nil {
			return nil, err
		}
	}
	if len(cfg.faults) > 1 {
		return nil, fmt.Errorf("pinbcast: %d fault models for one source: %w", len(cfg.faults), ErrBadSpec)
	}
	return newReceiver(src, cfg)
}

// newReceiver builds a receiver from collected options, with the first
// of its fault models, if any. MultiTuner (a nil src for a channel known
// dead) and Simulate (no source at all) call it directly and drive
// observe themselves.
func newReceiver(src Source, cfg *receiverConfig) (*Receiver, error) {
	r := &Receiver{
		src:      src,
		cli:      client.NewSubscriber(cfg.names),
		channel:  -1,
		schedule: cfg.schedule,
		lastT:    -1,
	}
	if len(cfg.faults) > 0 {
		r.fault = cfg.faults[0]
	}
	for _, req := range cfg.requests {
		if err := r.Request(req.File, req.Deadline); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Request asks for one file with a relative deadline in slots (0 =
// none). Its deadline clock starts at the next observed slot and
// RunInto/Step collect it from the air. Requesting a file that is already
// pending wraps ErrBadSpec.
func (r *Receiver) Request(file string, deadline int) error {
	if file == "" {
		return fmt.Errorf("pinbcast: request without a file name: %w", ErrBadSpec)
	}
	if r.cli.IsPending(file) {
		return fmt.Errorf("pinbcast: file %q already requested: %w", file, ErrBadSpec)
	}
	if err := r.cli.Add(client.Request{File: file, Deadline: deadline}); err != nil {
		return fmt.Errorf("pinbcast: %w: %w", ErrBadSpec, err)
	}
	return nil
}

// Step consumes one slot from the source and advances the protocol. It
// reports whether every request has completed. The stream end
// propagates as io.EOF (RunInto flushes the requests still pending then
// as failures); Results hands over what completed.
//
// Step is the per-slot receive path; BenchmarkReceiverSlots asserts
// 0 allocs/op in steady state.
//
//pinlint:hotpath
func (r *Receiver) Step() (done bool, err error) {
	slot, err := r.src.Next()
	if err == nil {
		r.observe(slot)
	}
	return r.cli.Done(), err
}

// observe is the retrieval engine: everything a receiver does with one
// slot once it is off the air. Step, each MultiTuner channel driver and
// Simulate all feed it, so a fault, a dozed slot and a counter mean the
// same thing on every path.
//
//pinlint:hotpath
func (r *Receiver) observe(slot Slot) client.Outcome {
	r.m.Slots++
	rcvSlots.Inc()
	r.lastT = slot.T

	// The in-process transport carries file names alongside blocks;
	// learn the directory for free (over TCP only the self-identifying
	// block travels, and the directory comes from WithDirectory).
	if slot.File != "" && slot.Block != nil {
		r.cli.Learn(slot.Block.FileID, slot.File)
	}

	// A generation swap re-aligns the station's program to a fresh
	// origin the receiver cannot see, so a stale schedule would doze on
	// exactly the wrong slots. Fall back to continuous listening — the
	// protocol stays correct, only the energy saving is lost (a real
	// client would re-read the air index). Only the in-process
	// transport carries generation marks; over TCP, WithSchedule
	// assumes a single-generation broadcast.
	if r.schedule != nil && slot.Generation != 0 {
		if r.scheduleGen == 0 {
			r.scheduleGen = slot.Generation
		} else if slot.Generation != r.scheduleGen {
			r.schedule = nil
		}
	}

	// The fault process is a property of the channel, not of what the
	// receiver does with it: stateful models (Gilbert–Elliott bursts)
	// advance once per transmitted block, whether or not this receiver
	// is listening.
	corrupted := len(slot.Payload) > 0 && r.fault != nil && r.fault.Corrupts(slot.T)

	if r.cli.PendingCount() == 0 {
		// Nothing requested: the radio idles but the tune-in clock
		// keeps ticking, so a later Request measures latency from its
		// own activation slot, not from a stale one.
		return r.cli.Observe(slot.T, nil)
	}

	// Doze: with schedule knowledge the receiver wakes only for slots
	// that can serve a pending request.
	if r.schedule != nil {
		if f := r.schedule.FileAt(slot.T); f == Idle || !r.cli.IsPending(r.schedule.Files[f].Name) {
			r.m.Dozed++
			// The latency clock keeps ticking while the radio sleeps —
			// dozing saves tuning time, never access time.
			return r.cli.Observe(slot.T, nil)
		}
	}
	r.m.Listened++

	payload := slot.Payload
	if corrupted {
		r.corruptBuf = append(r.corruptBuf[:0], payload...)
		payload = r.corruptBuf
		payload[len(payload)/2] ^= 0x5a // garble so the checksum fails
		r.m.Injected++
		if slot.File != "" {
			// A garbled block cannot say whose it was; the slot can.
			r.cli.NoteCorruption(slot.File)
		}
		traceRing.Emit(obs.BlockCorrupted, r.channel, 0, 0, uint64(slot.T), 0)
	}

	out := r.cli.Observe(slot.T, payload)
	if out == client.Corrupt {
		r.m.Corrupted++
		rcvCorrupted.Inc()
		return out
	}
	if payload != nil { // every other outcome of a transmitted block heard it
		r.m.Blocks++
		rcvBlocks.Inc()
	}
	switch out {
	case client.Unknown:
		r.m.Unknown++
	case client.Completed:
		r.m.Reconstructions++
	}
	return out
}

// RunInto consumes the source until every request has completed, the
// context is cancelled, or the stream ends, and appends to dst the
// outcomes recorded since the last hand-over (this one or Results).
// Pending requests are flushed as failures, in the order they were
// requested, when the stream ends or the context is cancelled; a
// receiver left running can accept further Request calls and run again.
//
// The receiver keeps no result history: what RunInto appends is the
// caller's, so a caller that reuses dst and hands each Data buffer back
// with Recycle retrieves indefinitely in the memory of its open requests
// and one output buffer, allocation-free once warm.
//
// Cancellation is observed between slots: a Source whose Next blocks
// indefinitely (a TCPSource with zero Timeout on a silent connection)
// holds RunInto with it. Give the source a timeout — the resulting error
// returns from RunInto — when the broadcast may stall.
func (r *Receiver) RunInto(ctx context.Context, dst []Result) ([]Result, error) {
	err := r.run(ctx)
	return r.cli.TakeResults(dst), err
}

// run drives one RunInto until its requests are done or it ends.
func (r *Receiver) run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			r.cli.Flush(r.lastT)
			return ctx.Err()
		default:
		}
		done, err := r.Step()
		if errors.Is(err, io.EOF) {
			r.cli.Flush(r.lastT)
			return nil
		}
		if err != nil || done {
			return err
		}
	}
}

// Results hands over the outcomes recorded since the last hand-over
// (completed requests and flushed failures), for a loop that drives the
// receiver with Step. The slice is the receiver's and valid until the
// next call; the receiver keeps nothing else of them.
//
//pinlint:hotpath
func (r *Receiver) Results() []Result {
	clear(r.taken) // the previous hand-over's Data is the caller's, not ours to pin
	r.taken = r.cli.TakeResults(r.taken[:0])
	return r.taken
}

// Recycle hands a completed result's Data buffer back to the receiver
// for reuse, making a request/retrieve/recycle loop allocation-free once
// warm: it becomes a later retrieval's row buffer, written from that
// retrieval's first kept systematic block on. Call it only when finished
// with the result; neither it nor its Data may be used afterwards.
func (r *Receiver) Recycle(res Result) {
	if !res.Completed || res.Data == nil {
		return
	}
	r.cli.Recycle(res.Data)
}

// Done reports whether every request has completed.
func (r *Receiver) Done() bool { return r.cli.Done() }

// Metrics returns a snapshot of the receiver's counters.
func (r *Receiver) Metrics() ReceiverMetrics { return r.m }

// Close releases the underlying source.
func (r *Receiver) Close() error { return r.src.Close() }
