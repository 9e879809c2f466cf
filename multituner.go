package pinbcast

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"pinbcast/internal/client"
	"pinbcast/internal/cluster"
	"pinbcast/internal/ida"
	"pinbcast/internal/obs"
	"pinbcast/internal/transport"
)

// MultiTuner is the receiving half of a Cluster: one logical receiver
// subscribed to several broadcast Sources concurrently — one per
// channel. Its channels share one merged directory, it retrieves each
// request from the cheapest live channel carrying the file (per the
// fetch plan, cheapest first), and it hops a request to the next live
// carrier when its channel dies. Channel health comes from a
// missed-slot detector on the fan-out seam: gaps in a channel's slot
// numbering and read timeouts accumulate toward a death threshold, and a stream error or
// EOF kills the channel outright. A request whose known carriers are
// all dead falls back to scanning every live channel, so a file the
// cluster re-admits elsewhere after a failover (Cluster.FailChannel)
// is still found — the blocks are self-identifying, whichever channel
// carries them.
//
// A request attached to several channels at once (scan mode) pools what
// they hear: each home of a replicated file sends its own range of one
// code (see Cluster), so the channel that stores a block takes over what
// the others hold and the retrieval ends on the slot that brings the
// union to m distinct blocks, credited to the channel that stored the
// last. A request hopping off a dead channel takes along what that
// channel delivered. Pooling is promised to nobody: a ClusterContract
// bounds each channel on its own.
//
//	mt, err := pinbcast.NewMultiTuner(srcs,
//		pinbcast.WithTunerDirectory(c.Directory()),
//		pinbcast.WithTunerHomes(c.FetchPlan()),
//		pinbcast.WithTunerRequest("traffic-00", deadline),
//	)
//	results, err := mt.RunInto(ctx, nil) // reuse results[:0] next run
//	// ... use results, then hand each Data buffer back:
//	for _, res := range results {
//		mt.Recycle(res)
//	}
//
// Deadlines are per-attachment: a hopped request's deadline clock
// restarts on the serving channel, matching the per-channel Contract
// bounds a ClusterContract composes. Like Receiver.RunInto, it observes
// cancellation between slots — give TCP sources a Timeout so a silent
// channel cannot hold a drive loop forever (the timeout doubles as the
// missed-slot clock).
type MultiTuner struct {
	chans []*mtChannel
	det   *cluster.Detector
	homes map[string][]int // the fetch plan of WithTunerHomes; read-only after construction

	mu        sync.Mutex
	reqs      map[string]*mtRequest // unfinished requests only, as in client.Client
	freeReqs  []*mtRequest          // finished ones, their tried/attached storage kept
	nextSeq   uint64                // stamp of the next request
	results   []ClusterResult       // recorded since the last RunInto drained them
	hops      int
	completed int  // finished requests by outcome, for Metrics: results
	failed    int  // holds only the current run's
	pooled    int  // completed ones rebuilt from blocks of several channels
	started   bool // the persistent channel drivers are running
	closed    bool // Close has run: no run may wake a driver any more

	// Run-lifecycle plumbing, kept allocation-free per run: the channel
	// drivers are persistent goroutines woken by a token per run rather
	// than spawned per run (a spawn costs a closure allocation each),
	// completion is a reusable cap-1 token channel rather than a remade
	// close-once channel, and runDone is the flag drivers poll between
	// slots to notice the run ending.
	runWG    sync.WaitGroup
	runDone  atomic.Bool
	done     chan struct{} // cap 1: a token arrives when every request completes
	shutdown chan struct{} // closed by Close (under mu, with closed): parked drivers exit
}

// mtChannel is one subscribed channel: a Receiver — the retrieval
// engine, with the channel's source, directory, reception-fault process
// and counters — behind the channel's own lock. The K receive loops
// never serialize on one mutex in the per-slot path: the tuner-wide
// lock (MultiTuner.mu) is taken only for request bookkeeping (attach,
// hop, completion). The lock order is MultiTuner.mu before
// mtChannel.mu; the per-slot path takes mtChannel.mu alone and
// re-enters through MultiTuner.mu only after releasing it.
type mtChannel struct {
	wake chan context.Context // cap 1: each run wakes the driver with its context

	mu  sync.Mutex
	rcv *Receiver // rcv.src is read without mu: it never changes
}

// mtRequest tracks one logical retrieval across channels.
type mtRequest struct {
	file     string
	seq      uint64 // request order: MultiTuner.nextSeq at requestVia
	deadline int
	order    []int // fetch plan, cheapest first; nil = scan mode
	attached []int // channels currently collecting the file
	tried    map[int]bool
	pooled   bool         // blocks have moved between its channels
	hand     []*ida.Block // scratch of a hand-over, kept across requests
}

// ClusterResult is a Result annotated with the channel that served it
// (-1 when the request failed on every channel).
type ClusterResult struct {
	Result
	Channel int
}

// MultiTunerMetrics counts what a multi-tuner has seen and done.
type MultiTunerMetrics struct {
	// SlotsPerChannel is the number of slots consumed from each source.
	SlotsPerChannel []int
	// Hops counts request re-attachments after channel deaths.
	Hops int
	// DeadChannels lists the channels the detector has declared dead.
	DeadChannels []int
	// Injected counts corruptions introduced by the tuner's own fault
	// models (WithTunerFaults) across all channels.
	Injected int
	// Completed and Failed count finished requests by outcome; Pooled is
	// how many of the completed were rebuilt from blocks of more than one
	// channel.
	Completed int
	Failed    int
	Pooled    int
}

// multiTunerConfig collects the options a MultiTuner is built from.
type multiTunerConfig struct {
	names     map[uint32]string
	homes     map[string][]int
	requests  []Request
	threshold int
	faults    []FaultModel
}

// MultiTunerOption configures a MultiTuner under construction.
type MultiTunerOption func(*multiTunerConfig) error

// WithTunerDirectory supplies the merged id→name directory
// (Cluster.Directory). Every channel's receiver starts from it, so a
// file is resolvable whichever channel its blocks arrive on.
func WithTunerDirectory(names map[uint32]string) MultiTunerOption {
	return func(c *multiTunerConfig) error {
		for id, name := range names {
			c.names[id] = name
		}
		return nil
	}
}

// WithTunerHomes supplies the fetch plan: for each file, the channels
// carrying it, cheapest first (Cluster.FetchPlan). Every request made
// without a plan of its own — WithTunerRequest, MultiTuner.Request —
// follows it; requests for files absent from the plan scan every live
// channel.
func WithTunerHomes(homes map[string][]int) MultiTunerOption {
	return func(c *multiTunerConfig) error {
		if c.homes == nil {
			c.homes = make(map[string][]int, len(homes))
		}
		for name, order := range homes {
			c.homes[name] = append([]int(nil), order...)
		}
		return nil
	}
}

// WithTunerRequest registers one file to retrieve by the given relative
// deadline in slots (0 = none), clocked per attachment on the serving
// channel.
func WithTunerRequest(file string, deadline int) MultiTunerOption {
	return func(c *multiTunerConfig) error {
		c.requests = append(c.requests, Request{File: file, Deadline: deadline})
		return nil
	}
}

// WithTunerFaults injects one reception fault model per channel —
// independent media have independent fault processes, so stateful
// models (BurstFaults) must not be shared across channels. Slots a
// model corrupts reach the channel's protocol as garbled blocks, which
// the checksum rejects. The slice must have exactly one entry per
// source (nil entries leave that channel fault-free).
func WithTunerFaults(models ...FaultModel) MultiTunerOption {
	return func(c *multiTunerConfig) error {
		c.faults = append([]FaultModel(nil), models...)
		return nil
	}
}

// WithMissThreshold sets how many consecutive missed slots (numbering
// gaps or read timeouts) mark a channel dead (default 4).
func WithMissThreshold(n int) MultiTunerOption {
	return func(c *multiTunerConfig) error {
		if n < 1 {
			return fmt.Errorf("pinbcast: miss threshold %d < 1: %w", n, ErrBadSpec)
		}
		c.threshold = n
		return nil
	}
}

// NewMultiTuner subscribes a multi-channel tuner to one Source per
// cluster channel. The source order must match the cluster's channel
// numbering (srcs[i] carries channel i); a channel already known dead
// may be represented by a nil source.
func NewMultiTuner(srcs []Source, opts ...MultiTunerOption) (*MultiTuner, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("pinbcast: no sources: %w", ErrBadSpec)
	}
	cfg := &multiTunerConfig{names: map[uint32]string{}}
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.faults != nil && len(cfg.faults) != len(srcs) {
		return nil, fmt.Errorf("pinbcast: %d fault models for %d channels: %w",
			len(cfg.faults), len(srcs), ErrBadSpec)
	}
	mt := &MultiTuner{
		det:      cluster.NewDetector(len(srcs), cfg.threshold),
		homes:    cfg.homes,
		reqs:     map[string]*mtRequest{},
		done:     make(chan struct{}, 1),
		shutdown: make(chan struct{}),
	}
	for i, src := range srcs {
		rc := &receiverConfig{names: cfg.names}
		if cfg.faults != nil {
			rc.fault = cfg.faults[i]
		}
		rcv, err := newReceiver(src, rc)
		if err != nil {
			return nil, err
		}
		rcv.channel = i
		mt.chans = append(mt.chans, &mtChannel{wake: make(chan context.Context, 1), rcv: rcv})
		if src == nil {
			mt.det.Fail(i)
		}
	}
	for _, req := range cfg.requests {
		if err := mt.Request(req.File, req.Deadline); err != nil {
			return nil, err
		}
	}
	return mt, nil
}

// Request asks for one file with a relative deadline in slots (0 =
// none), fetched by the tuner's plan for it (WithTunerHomes). A file the
// plan does not name — every file, when no plan was given — is fetched
// in scan mode: every live channel collects it and the first to
// complete wins. Requesting a file already pending wraps ErrBadSpec.
func (mt *MultiTuner) Request(file string, deadline int) error {
	return mt.requestVia(file, deadline, mt.homes[file])
}

// requestVia asks for one file with an explicit fetch plan: the
// channels carrying the file, cheapest first (one entry of
// Cluster.FetchPlan). The request attaches to the first live
// channel of the plan and hops down the plan as channels die; with the
// plan exhausted (or nil) it scans every live channel.
func (mt *MultiTuner) requestVia(file string, deadline int, order []int) error {
	if file == "" {
		return fmt.Errorf("pinbcast: request without a file name: %w", ErrBadSpec)
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if _, dup := mt.reqs[file]; dup {
		return fmt.Errorf("pinbcast: file %q already requested: %w", file, ErrBadSpec)
	}
	for _, ch := range order {
		if ch < 0 || ch >= len(mt.chans) {
			return fmt.Errorf("pinbcast: fetch plan for %q names channel %d of %d: %w",
				file, ch, len(mt.chans), ErrBadSpec)
		}
	}
	var req *mtRequest
	if n := len(mt.freeReqs) - 1; n >= 0 {
		req = mt.freeReqs[n]
		mt.freeReqs = mt.freeReqs[:n]
	} else {
		req = &mtRequest{tried: map[int]bool{}}
	}
	req.file, req.seq, req.deadline, req.order = file, mt.nextSeq, deadline, order
	mt.nextSeq++
	mt.reqs[file] = req
	mt.attachLocked(req)
	if len(req.attached) == 0 {
		mt.failLocked(req) // no live channel at all: fail now rather than hang
	}
	return nil
}

// attachLocked attaches the request to the cheapest untried live
// channel of its plan, or — plan exhausted — to every live channel
// (scan mode). Caller holds mu.
func (mt *MultiTuner) attachLocked(req *mtRequest) {
	for _, ch := range req.order {
		if req.tried[ch] || !mt.det.Alive(ch) {
			continue
		}
		mt.attachToLocked(req, ch)
		return
	}
	for ch := range mt.chans {
		if req.tried[ch] || !mt.det.Alive(ch) {
			continue
		}
		mt.attachToLocked(req, ch)
	}
}

func (mt *MultiTuner) attachToLocked(req *mtRequest, ch int) {
	mc := mt.chans[ch]
	mc.mu.Lock()
	err := mc.rcv.Request(req.file, req.deadline)
	mc.mu.Unlock()
	if err != nil {
		return // already pending there (re-request after cancel race)
	}
	req.tried[ch] = true
	req.attached = append(req.attached, ch)
}

// cancelOn withdraws a file's collection on one channel and evens that
// channel's block pool out against spare (client.Settle), returning what
// is left of it. Caller holds mu (the mt.mu → mc.mu order).
//
//pinlint:holds mu
func (mt *MultiTuner) cancelOn(ch int, file string, spare []*ida.Block) []*ida.Block {
	mc := mt.chans[ch]
	mc.mu.Lock()
	mc.rcv.cli.Cancel(file)
	spare = mc.rcv.cli.Settle(spare)
	mc.mu.Unlock()
	return spare
}

// finishLocked records an open request's outcome, releases the channels
// collecting it and retires it to the free list. Where blocks moved
// between its channels the block pools are evened out on the way: the
// channel that finished, first, gives up what it took in, the others
// keep what they gave. Caller holds mu.
func (mt *MultiTuner) finishLocked(req *mtRequest, res ClusterResult) {
	spare := req.hand[:0]
	if res.Channel >= 0 {
		spare = mt.cancelOn(res.Channel, req.file, spare)
	}
	for _, ch := range req.attached {
		if ch != res.Channel {
			spare = mt.cancelOn(ch, req.file, spare)
		}
	}
	clear(spare) // a channel the request left since is owed the rest
	req.hand = spare[:0]
	delete(mt.reqs, req.file)
	clear(req.tried)
	req.attached, req.order = req.attached[:0], nil
	mt.freeReqs = append(mt.freeReqs, req)
	mt.results = append(mt.results, res)
	if res.Completed {
		mt.completed++
		tunCompleted.Inc()
		tunLatencySlots.Observe(uint64(res.Latency))
		if req.pooled {
			mt.pooled++
			tunPooled.Inc()
		}
	} else {
		mt.failed++
		tunFailed.Inc()
	}
	req.pooled = false
	if len(mt.reqs) > 0 {
		return
	}
	// Every request is done: end the run. Drivers notice the flag at the
	// next slot boundary; the token releases the RunInto call itself.
	mt.runDone.Store(true)
	select {
	case mt.done <- struct{}{}:
	default:
	}
}

// failLocked finishes a request no live channel can serve. Caller holds
// mu.
func (mt *MultiTuner) failLocked(req *mtRequest) {
	mt.finishLocked(req, ClusterResult{
		Result:  Result{File: req.file, Deadline: req.deadline},
		Channel: -1,
	})
}

// RunInto drives every channel concurrently until each request has
// completed, the context is cancelled, or no live channel remains, and
// appends the outcomes recorded since the last RunInto to dst, in
// completion order. As with Receiver.RunInto, requests still pending
// when the run ends — whatever ended it — are flushed as failures with
// Channel −1, in the order they were requested: a cancelled context is
// the caller's deadline on the whole run, not a pause. A tuner left
// running accepts further Request calls (including re-requests of
// flushed files) and can run again.
//
// The tuner keeps no result history, so a caller that reuses dst (and
// hands Data buffers back with Recycle) retrieves indefinitely without
// either side accumulating — the loop is allocation-free once warm. The
// first run parks one persistent driver goroutine per channel; they stay
// parked between runs and are released by Close. A run on a closed tuner
// wakes nobody and flushes its requests at once.
func (mt *MultiTuner) RunInto(ctx context.Context, dst []ClusterResult) ([]ClusterResult, error) {
	err := mt.run(ctx)
	mt.mu.Lock()
	dst = append(dst, mt.results...)
	clear(mt.results) // drop the Data references: the caller owns them now
	mt.results = mt.results[:0]
	mt.mu.Unlock()
	return dst, err
}

// Recycle hands a completed result's Data buffer back to the channel
// that reconstructed it: it becomes a later retrieval's row buffer there,
// written from that retrieval's first kept systematic block on. Call it
// only when finished with the result; neither it nor its Data may be
// used afterwards.
func (mt *MultiTuner) Recycle(res ClusterResult) {
	if res.Channel < 0 || res.Channel >= len(mt.chans) || res.Data == nil {
		return
	}
	mc := mt.chans[res.Channel]
	mc.mu.Lock()
	mc.rcv.Recycle(res.Result)
	mc.mu.Unlock()
}

// run drives one RunInto to completion.
func (mt *MultiTuner) run(ctx context.Context) error {
	mt.mu.Lock()
	if len(mt.reqs) == 0 {
		mt.mu.Unlock()
		return nil
	}
	mt.runDone.Store(false)
	select {
	case <-mt.done: // drop a stale token left by a previous run
	default:
	}
	woken := 0
	if !mt.closed {
		if !mt.started {
			mt.started = true
			for i := range mt.chans {
				if mt.chans[i].rcv.src != nil {
					go mt.driver(i)
				}
			}
		}
		for i := range mt.chans {
			if mt.chans[i].rcv.src == nil || !mt.det.Alive(i) {
				continue
			}
			mt.runWG.Add(1)
			select {
			case mt.chans[i].wake <- ctx:
				woken++
			default:
				// Unreachable by construction — the previous run's token was
				// consumed before its runWG.Wait returned — but never block
				// holding mu on a full wake buffer.
				mt.runWG.Done()
			}
		}
	}
	mt.mu.Unlock()

	var runErr error
	if woken > 0 {
		select {
		case <-ctx.Done():
			runErr = ctx.Err()
			mt.runDone.Store(true)
		case <-mt.done:
		}
		mt.runWG.Wait()
	}

	mt.mu.Lock()
	for _, req := range mt.openLocked() {
		mt.failLocked(req)
	}
	mt.mu.Unlock()
	return runErr
}

// openLocked returns the unfinished requests in request order — map
// iteration order must never decide the order of results or hops.
// Caller holds mu.
func (mt *MultiTuner) openLocked() []*mtRequest {
	if len(mt.reqs) == 0 {
		return nil // every run ends here: the iterator below would allocate
	}
	return slices.SortedFunc(maps.Values(mt.reqs), func(a, b *mtRequest) int { return cmp.Compare(a.seq, b.seq) })
}

// driver is one channel's persistent drive goroutine: it parks between
// runs and consumes its source for the duration of each. A dead
// channel's driver simply stays parked — run never wakes it again.
func (mt *MultiTuner) driver(ch int) {
	wake := mt.chans[ch].wake
	for {
		var ctx context.Context
		select {
		case ctx = <-wake:
		case <-mt.shutdown:
			// run wakes drivers only under mu while open, so a token sent
			// just before Close is already buffered; its run is still owed
			// a drive, which the closed source ends at once.
			select {
			case ctx = <-wake:
			default:
				return
			}
		}
		mt.drive(ctx, ch)
		mt.runWG.Done()
	}
}

// drive consumes one channel's source until the run stops, the context
// ends, or the channel dies.
func (mt *MultiTuner) drive(ctx context.Context, ch int) {
	for {
		if mt.runDone.Load() {
			return
		}
		select {
		case <-ctx.Done():
			return
		default:
		}
		slot, err := mt.chans[ch].rcv.src.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && transport.IsTimeout(err) {
				if mt.det.Miss(ch) {
					tunMisses.Inc()
					traceRing.Emit(obs.MissDetected, ch, 0, 0, 0, 0)
					mt.channelDied(ch)
					return
				}
				continue
			}
			// EOF or a hard receive error: the channel's stream is gone.
			mt.det.Fail(ch)
			mt.channelDied(ch)
			return
		}
		if mt.observe(ch, slot) {
			mt.channelDied(ch)
			return
		}
	}
}

// observe delivers one slot to the channel's receiver and reports
// whether the slot's numbering gap just killed the channel. Only the
// channel's own lock is held for the protocol work; the tuner-wide lock
// is taken after it is released, and only when a block was stored: to
// record a completed reconstruction, or to pool the request's blocks on
// this channel when it collects on others too.
func (mt *MultiTuner) observe(ch int, slot Slot) (died bool) {
	died = mt.det.Observe(ch, slot.T)
	mc := mt.chans[ch]
	mc.mu.Lock()
	var res Result
	var file string
	out := mc.rcv.observe(slot)
	switch out {
	case client.Completed:
		res = mc.takeResult()
		file = res.File
	case client.Stored:
		file = mc.rcv.cli.Heard()
	}
	mc.mu.Unlock()
	if file == "" {
		return died
	}
	mt.mu.Lock()
	req, open := mt.reqs[file]
	switch {
	case !open: // finished on another channel meanwhile
	case out == client.Completed:
		mt.finishLocked(req, ClusterResult{Result: res, Channel: ch})
	case len(req.attached) > 1 && slices.Contains(req.attached, ch):
		mt.handLocked(req, ch, req.attached...)
	}
	mt.mu.Unlock()
	return died
}

// takeResult takes the completion the receiver just recorded through
// the receiver's own hand-over: the tuner's bookkeeping is the single
// record of outcomes. Caller holds mc.mu.
func (mc *mtChannel) takeResult() Result {
	taken := mc.rcv.Results()
	return taken[len(taken)-1]
}

// handLocked moves what the channels in from hold for the request to
// channel to — one channel lock at a time, to itself skipped — and
// records the completion when that brings to's receiver to m distinct
// blocks, exactly as if its own slot had. Caller holds mu.
func (mt *MultiTuner) handLocked(req *mtRequest, to int, from ...int) {
	hand := req.hand[:0]
	for _, ch := range from {
		if ch != to {
			mc := mt.chans[ch]
			mc.mu.Lock()
			hand = mc.rcv.cli.Yield(req.file, hand)
			mc.mu.Unlock()
		}
	}
	req.hand = hand[:0]
	if len(hand) == 0 {
		return
	}
	req.pooled = true
	mc := mt.chans[to]
	mc.mu.Lock()
	var res Result
	completed := mc.rcv.cli.Take(req.file, hand)
	if completed {
		mc.rcv.m.Reconstructions++
		res = mc.takeResult()
	}
	mc.mu.Unlock()
	clear(hand)
	if completed {
		mt.finishLocked(req, ClusterResult{Result: res, Channel: to})
	}
}

// channelDied re-homes the dead channel's pending requests: each hops
// to the next live carrier of its plan (or to scan mode), and a request
// with no live channel left anywhere is flushed as a failure. A request
// keeps the blocks the dead channel delivered — they go to the channel
// it collects on now — so it needs the rest of m, not m again.
func (mt *MultiTuner) channelDied(ch int) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	for _, req := range mt.openLocked() {
		file := req.file
		attached := req.attached[:0]
		wasHere := false
		for _, a := range req.attached {
			if a == ch {
				wasHere = true
			} else if mt.det.Alive(a) {
				attached = append(attached, a)
			}
		}
		req.attached = attached
		if len(req.attached) == 0 {
			mt.hops++
			tunHops.Inc()
			traceRing.Emit(obs.ChannelHop, ch, 0, 0, 0, 0)
			mt.attachLocked(req)
		}
		if wasHere {
			if len(req.attached) > 0 {
				mt.handLocked(req, req.attached[0], ch)
			}
			mt.cancelOn(ch, file, nil)
		}
		if mt.reqs[file] == req && len(req.attached) == 0 {
			mt.failLocked(req)
		}
	}
}

// Metrics returns a snapshot of the tuner's counters.
func (mt *MultiTuner) Metrics() MultiTunerMetrics {
	m := MultiTunerMetrics{
		SlotsPerChannel: make([]int, len(mt.chans)),
		DeadChannels:    mt.det.Dead(),
	}
	for i, mc := range mt.chans {
		mc.mu.Lock()
		rm := mc.rcv.Metrics()
		mc.mu.Unlock()
		m.SlotsPerChannel[i] = rm.Slots
		m.Injected += rm.Injected
	}
	mt.mu.Lock()
	m.Hops = mt.hops
	m.Completed = mt.completed
	m.Failed = mt.failed
	m.Pooled = mt.pooled
	mt.mu.Unlock()
	return m
}

// Close releases every source and the parked channel drivers. A run in
// flight ends as its channels' streams do; a later RunInto fails at once.
func (mt *MultiTuner) Close() error {
	mt.mu.Lock()
	if !mt.closed {
		mt.closed = true
		close(mt.shutdown)
	}
	mt.mu.Unlock()
	var first error
	for _, mc := range mt.chans {
		if mc.rcv.src == nil {
			continue
		}
		if err := mc.rcv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
