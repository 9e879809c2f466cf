package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pinbcast"
	"pinbcast/internal/obs"
	"pinbcast/internal/transport"
	"pinbcast/internal/workload"
)

// catalogueSeed fixes the *shape* of every catalogue (how many blocks
// each file has and how tight its latency is). The run's -seed draws
// everything else — file contents, request order, reception faults,
// churn reads — so outputs differ per seed while offered load does not:
// with 16–32 random files the mean retrieval time moves ±15 % from one
// catalogue shape to the next, which would drown a 10 % regression
// bound in seed noise.
const catalogueSeed = 1

// spec is one workload's parameters. The names are fixed; later issues
// cite them.
type spec struct {
	name      string
	why       string
	files     int
	maxBlocks int // bdserved draws its catalogue with 6, the in-process workloads use 8
	faults    int // designed per-window fault tolerance r
	blockSize int
	loss      float64 // Bernoulli reception-fault probability per slot
	receivers int
	interval  time.Duration // slot pacing; 0 = consumer-paced
	build     func(*run) (*system, error)
}

var specs = []spec{
	{
		name:  "fanout-steady",
		why:   "small blocks over loopback TCP to 2 receivers: per-slot overhead of serve loop, Pump, Fanout, writev, frame read and Observe is all the work; IDA does almost none",
		files: 32, maxBlocks: 8, faults: 2, blockSize: 1 << 10, loss: 0.01, receivers: 2,
		build: buildFanoutSteady,
	},
	{
		name:  "lossy-bulk",
		why:   "64 KiB blocks in process, 5% loss, no transport: per-byte work (block checksum, GF(256) reconstruction, cloning) dominates; a transport change must not move it, a codec change moves only it",
		files: 16, maxBlocks: 8, faults: 2, blockSize: 64 << 10, loss: 0.05, receivers: 1,
		build: buildLossyBulk,
	},
	{
		name:  "admit-churn",
		why:   "256 files served in process while a control loop negotiates, admits, evicts and fails over: pinwheel solve, program build, encode and generation swaps beside the reads",
		files: 256, maxBlocks: 8, faults: 1, blockSize: 1 << 10, receivers: 1,
		build: buildAdmitChurn,
	},
	{
		name:  "daemon-paced",
		why:   "a real bdserved child paced at 1 ms per slot, 2 channels, one MultiTuner over loopback: process boundary, ticker punctuality and wall-clock latency against the contract",
		files: 16, maxBlocks: 6, faults: 1, blockSize: 1 << 10, receivers: 1, interval: time.Millisecond,
		build: buildDaemonPaced,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// catalogue generates the workload's file specifications exactly the
// way bdserved does (workload.Random, then the designed fault tolerance
// on every file), so the daemon workload can regenerate the child's
// catalogue from the TOML it wrote.
func (s spec) catalogue() []pinbcast.FileSpec {
	files := workload.Random(s.files, s.maxBlocks, 10, 80, 0, catalogueSeed)
	for i := range files {
		files[i].Faults = s.faults
	}
	return files
}

// run is the context one live set-up is built in.
type run struct {
	spec     spec
	seed     int64
	instance int     // which of the run's fresh set-ups this is
	tr       *tracer // nil when tracing is off
	env      environment
}

// environment is where a run finds the things outside the process.
type environment struct {
	bdserved string // path of the built daemon binary
	workDir  string // where generated configs go
}

// system is one live set-up of a workload: the broadcasting side, its
// closed-loop clients, and the outside-in probes the runner reads.
type system struct {
	clients  []retriever
	files    []pinbcast.FileSpec
	contents map[string][]byte
	deadline map[string]int // B·Tᵢ slots per file

	// emitted returns the slots the broadcasting side has emitted so
	// far; cpu and peakRSS probe the process that does the broadcasting
	// (this one, or the bdserved child); evicted counts subscribers the
	// fan-out dropped.
	emitted func() (float64, error)
	cpu     func() (cpuTime, error)
	peakRSS func() (float64, error)
	evicted func() (float64, error)
	// generation, when non-nil, reads the newest program generation the
	// receiver has seen (workloads whose program changes under the reads).
	generation func() int64
	// health reports a broadcasting side that stopped on its own.
	health func() error
	// background, when non-nil, runs beside the reads until its context
	// is cancelled (the admit-churn control loop).
	background func(context.Context) error
	// warmed runs when warm-up ends; finish adds the workload's own
	// per-layer metrics after a traced window, once the clients have
	// stopped and before close.
	warmed func()
	finish func(metricSet)
	close  func() error

	sink *tracedSink
}

// counter returns a reader of a process-wide obs counter. The registry
// hands back the existing instrument for a registered name.
func counter(name string) func() (float64, error) {
	c := obs.Default().Counter(name, "")
	return func() (float64, error) { return float64(c.Value()), nil }
}

func selfPeakRSS() (float64, error) { return procPeakRSSMB(selfPID) }

// firstSlot reads one slot from every source: the end of set-up is the
// moment each receiver has heard the broadcast.
func firstSlot(srcs ...pinbcast.Source) error {
	for _, src := range srcs {
		if _, err := src.Next(); err != nil {
			return fmt.Errorf("waiting for the first slot: %w", err)
		}
	}
	return nil
}

// windows computes B·Tᵢ for every file at the given bandwidth.
func windows(files []pinbcast.FileSpec, bandwidth int) map[string]int {
	w := make(map[string]int, len(files))
	for _, f := range files {
		w[f.Name] = bandwidth * f.Latency
	}
	return w
}

// traced returns the timing wrapper for a client's source, or nil when
// tracing is off.
func (r *run) traced(src pinbcast.Source) *tracedSource {
	if r.tr == nil {
		return nil
	}
	return &tracedSource{inner: src, rec: r.tr.recorder()}
}

// boundedFaults is Bernoulli reception loss clipped to the paper's
// fault hypothesis: a transmission is destroyed with probability p,
// except that file i never loses more than rᵢ of its blocks within any
// B·Tᵢ consecutive slots. Inside the hypothesis the paper promises
// every retrieval within its window, so on these workloads a late
// retrieval is a broken guarantee, not bad luck — and no operation
// fails by design. It relies on slot T being position T of the one
// program the station serves, which holds while no generation swap
// happens.
type boundedFaults struct {
	coin   pinbcast.FaultModel
	prog   *pinbcast.Program
	window []int   // per file: B·Tᵢ
	recent [][]int // per file: slots of its last rᵢ injected faults, oldest first
}

// faults returns receiver i's fault process over the station's program,
// or nil for a lossless workload.
func (r *run) faults(i int, st *pinbcast.Station, files []pinbcast.FileSpec) pinbcast.FaultModel {
	if r.spec.loss == 0 {
		return nil
	}
	b := &boundedFaults{
		coin: pinbcast.BernoulliFaults(r.spec.loss, (r.seed*1000003+int64(r.instance))*17+int64(i)),
		prog: st.Program(),
	}
	window := windows(files, st.Bandwidth())
	for _, f := range files {
		b.window = append(b.window, window[f.Name])
		ring := make([]int, f.Faults)
		for k := range ring {
			ring[k] = -1 << 40 // long before the broadcast began
		}
		b.recent = append(b.recent, ring)
	}
	return b
}

func (b *boundedFaults) Name() string { return "bounded-" + b.coin.Name() }

func (b *boundedFaults) Corrupts(t int) bool {
	if !b.coin.Corrupts(t) {
		return false
	}
	f := b.prog.FileAt(t)
	if f == pinbcast.Idle || len(b.recent[f]) == 0 {
		return false
	}
	ring := b.recent[f]
	if t-ring[0] < b.window[f] {
		return false // one more would be the (r+1)-th fault inside a window
	}
	copy(ring, ring[1:])
	ring[len(ring)-1] = t
	return true
}

// slotBuffer is the capacity of every station's slot channel, the value
// bdserved runs with: serve loop and consumer overlap instead of
// handing each slot over synchronously.
const slotBuffer = 256

func buildFanoutSteady(r *run) (*system, error) {
	s := r.spec
	files := s.catalogue()
	contents := workload.Contents(files, s.blockSize, r.seed)
	st, err := pinbcast.New(
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(contents),
		pinbcast.WithSlotBuffer(slotBuffer),
	)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// An hour of write timeout turns a full subscriber queue into
	// back-pressure on the serve loop instead of an eviction: the
	// receivers pace the pipeline, and any eviction is a failure.
	fan := pinbcast.NewFanout(ln, time.Hour)
	sys := &system{
		files: files, contents: contents, deadline: windows(files, st.Bandwidth()),
		emitted: counter("pin_station_slots_total"),
		cpu:     selfCPU, peakRSS: selfPeakRSS,
		evicted: func() (float64, error) { return float64(fan.Evicted()), nil },
	}
	var srcs []pinbcast.Source
	for i := 0; i < s.receivers; i++ {
		src, err := pinbcast.DialSource(fan.Addr().String())
		if err != nil {
			fan.Close()
			return nil, err
		}
		src.Reuse = true
		src.Timeout = 30 * time.Second
		cl, err := newReceiverClient(src, r.traced(src),
			pinbcast.WithDirectory(st.Directory()),
			pinbcast.WithReceiverFaults(r.faults(i, st, files)),
		)
		if err != nil {
			fan.Close()
			return nil, err
		}
		sys.clients = append(sys.clients, cl)
		srcs = append(srcs, cl.src)
	}
	for fan.ClientCount() < s.receivers {
		time.Sleep(100 * time.Microsecond)
	}
	var sink pinbcast.Sink = fan
	if r.tr != nil {
		depth := obs.Default().Gauge("pin_fanout_queue_depth", "")
		sys.sink = &tracedSink{inner: fan, rec: r.tr.recorder(), depth: depth.Value}
		sink = sys.sink
	}
	ctx, cancel := context.WithCancel(context.Background())
	broadcast := make(chan error, 1)
	go func() { broadcast <- st.Broadcast(ctx, sink) }()
	sys.close = func() error {
		// Close the fan-out first: a Send blocked on a full queue only
		// returns once its subscribers are stopped.
		fan.Close()
		cancel()
		err := <-broadcast
		for _, cl := range sys.clients {
			cl.close()
		}
		// Broadcast reports the closed fan-out it was stopped through.
		if errors.Is(err, transport.ErrClosed) {
			return nil
		}
		return err
	}
	if err := firstSlot(srcs...); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// inProcess builds a station serving over the in-process transport to
// one receiver; lossy-bulk and admit-churn share it.
func inProcess(r *run, files []pinbcast.FileSpec, contents map[string][]byte, bandwidth int) (*system, *pinbcast.Station, *generationSource, error) {
	opts := []pinbcast.Option{
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(contents),
		pinbcast.WithSlotBuffer(slotBuffer),
	}
	if bandwidth > 0 {
		opts = append(opts, pinbcast.WithBandwidth(bandwidth))
	}
	st, err := pinbcast.New(opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	slots, err := st.Serve(ctx)
	if err != nil {
		cancel()
		return nil, nil, nil, err
	}
	gs := &generationSource{Source: pinbcast.SlotSource(slots)}
	var ropts []pinbcast.ReceiverOption
	if fm := r.faults(0, st, files); fm != nil {
		ropts = append(ropts, pinbcast.WithReceiverFaults(fm))
	}
	cl, err := newReceiverClient(gs, r.traced(gs), ropts...)
	if err != nil {
		cancel()
		return nil, nil, nil, err
	}
	sys := &system{
		clients: []retriever{cl},
		files:   files, contents: contents, deadline: windows(files, st.Bandwidth()),
		emitted: counter("pin_station_slots_total"),
		cpu:     selfCPU, peakRSS: selfPeakRSS,
		evicted: func() (float64, error) { return 0, nil },
	}
	sys.close = func() error {
		cancel()
		for range slots { // Serve closes the stream once it sees the cancel
		}
		return cl.close()
	}
	if err := firstSlot(cl.src); err != nil {
		sys.close()
		return nil, nil, nil, err
	}
	return sys, st, gs, nil
}

func buildLossyBulk(r *run) (*system, error) {
	files := r.spec.catalogue()
	contents := workload.Contents(files, r.spec.blockSize, r.seed)
	sys, _, _, err := inProcess(r, files, contents, 0)
	return sys, err
}

// generationSource notes the newest program generation seen on the
// in-process stream, so the control loop can tell when a negotiated
// change has gone on air.
type generationSource struct {
	pinbcast.Source
	gen atomic.Int64
}

func (g *generationSource) Next() (pinbcast.Slot, error) {
	slot, err := g.Source.Next()
	if err == nil && int64(slot.Generation) > g.gen.Load() {
		g.gen.Store(int64(slot.Generation))
	}
	return slot, err
}

// churnFile is the file the control loop negotiates in and evicts out,
// over and over.
var churnFile = pinbcast.FileSpec{Name: "churn", Blocks: 4, Latency: 40, Faults: 1}

// clusterFiles is how many of the catalogue's files the control loop's
// throw-away cluster is planned over.
const clusterFiles = 64

func buildAdmitChurn(r *run) (*system, error) {
	s := r.spec
	files := s.catalogue()
	contents := workload.Contents(files, s.blockSize, r.seed)
	churnData := workload.Contents([]pinbcast.FileSpec{churnFile}, s.blockSize, r.seed+1)[churnFile.Name]
	// Size the channel for the catalogue plus the churn file, so
	// admission control always has room for it.
	bandwidth := pinbcast.SufficientBandwidth(append(append([]pinbcast.FileSpec(nil), files...), churnFile))
	sys, st, gs, err := inProcess(r, files, contents, bandwidth)
	if err != nil {
		return nil, err
	}
	ctl := &control{
		st: st, gs: gs, files: files, contents: contents, churnData: churnData,
		rng:    rand.New(rand.NewSource(r.seed ^ 0x636875726e)),
		window: sys.deadline,
	}
	if r.tr != nil {
		ctl.rec = r.tr.recorder()
	}
	swaps := obs.Default().Counter("pin_station_generation_swaps_total", "")
	var swaps0 uint64
	sys.background = ctl.run
	sys.generation = gs.gen.Load
	sys.warmed = func() {
		ctl.reset()
		swaps0 = swaps.Value()
	}
	sys.finish = func(m metricSet) {
		ctl.report(m)
		m.set("station.swaps", float64(swaps.Value()-swaps0))
	}
	return sys, nil
}

// control is the admit-churn write load: one goroutine cycling through
// the station's and the cluster's control-plane operations.
type control struct {
	st        *pinbcast.Station
	gs        *generationSource
	files     []pinbcast.FileSpec
	contents  map[string][]byte
	churnData []byte
	rng       *rand.Rand
	window    map[string]int
	rec       *recorder

	mu               sync.Mutex // guards the samples below against the runner's reads
	ops              map[string][]float64
	cycles           int
	started, stopped time.Time
}

// reset discards what was sampled so far (the end of warm-up).
func (c *control) reset() {
	c.mu.Lock()
	c.ops, c.cycles, c.started = map[string][]float64{}, 0, time.Now()
	c.mu.Unlock()
}

// timed runs one control operation, samples its duration in
// milliseconds under name and, when tracing, records a span under the
// cycle's.
func (c *control) timed(name string, parent uint64, op func() error) error {
	t0 := time.Now()
	err := op()
	t1 := time.Now()
	c.mu.Lock()
	if c.ops == nil {
		c.ops = map[string][]float64{}
	}
	c.ops[name] = append(c.ops[name], t1.Sub(t0).Seconds()*1e3)
	c.mu.Unlock()
	if c.rec != nil {
		c.rec.add(name, parent, t0, t1)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// run cycles until ctx is cancelled: negotiate the churn file in, wait
// for it to go on air, admit and release a read transaction, evict the
// churn file, then plan a two-channel cluster over part of the
// catalogue, negotiate a transaction on it and fail a channel.
func (c *control) run(ctx context.Context) error {
	c.reset()
	defer func() {
		c.mu.Lock()
		c.stopped = time.Now()
		c.mu.Unlock()
	}()
	sub := c.files[:clusterFiles]
	clusterBW := pinbcast.SufficientBandwidth(sub)
	for ctx.Err() == nil {
		var cycle uint64
		t0 := time.Now()
		if c.rec != nil {
			cycle = c.rec.reserve()
		}
		var contract pinbcast.Contract
		if err := c.timed("station.negotiate", cycle, func() (err error) {
			contract, err = c.st.Negotiate(churnFile, c.churnData)
			return err
		}); err != nil {
			return err
		}
		if err := c.timed("station.admit_live", cycle, func() error {
			for c.gs.gen.Load() < int64(contract.EffectiveAt) {
				if ctx.Err() != nil {
					return nil
				}
				time.Sleep(20 * time.Microsecond)
			}
			return nil
		}); err != nil {
			return err
		}
		reads := []string{churnFile.Name}
		deadline := contract.WorstLatencySlots
		for range 3 {
			f := c.files[c.rng.Intn(len(c.files))]
			reads = append(reads, f.Name)
			deadline = max(deadline, c.window[f.Name])
		}
		txn := pinbcast.Txn{Name: "txn", Reads: dedupe(reads), Deadline: deadline}
		if err := c.timed("station.admittxn", cycle, func() error {
			_, err := c.st.AdmitTxn(txn)
			return err
		}); err != nil {
			return err
		}
		if err := c.timed("station.releasetxn", cycle, func() error {
			if err := c.st.ReleaseTxn(txn.Name); err != nil {
				return err
			}
			return c.st.ReleaseTxn(churnFile.Name)
		}); err != nil {
			return err
		}
		if err := c.timed("station.evict", cycle, func() error { return c.st.Evict(churnFile.Name) }); err != nil {
			return err
		}

		var cl *pinbcast.Cluster
		if err := c.timed("cluster.new", cycle, func() (err error) {
			cl, err = pinbcast.NewCluster(
				pinbcast.WithChannels(2),
				pinbcast.WithReplicas(2),
				pinbcast.WithClusterBandwidth(clusterBW),
				pinbcast.WithClusterFiles(sub...),
				pinbcast.WithClusterContents(c.contents),
			)
			return err
		}); err != nil {
			return err
		}
		ctxn := pinbcast.Txn{Name: "ctxn", Reads: []string{sub[c.rng.Intn(len(sub))].Name}, Deadline: 1 << 30}
		if err := c.timed("cluster.negotiate", cycle, func() error {
			_, err := cl.Negotiate(ctxn)
			return err
		}); err != nil {
			return err
		}
		if err := c.timed("cluster.failchannel", cycle, func() error {
			_, err := cl.FailChannel(1)
			return err
		}); err != nil {
			return err
		}
		c.mu.Lock()
		c.cycles++
		c.mu.Unlock()
		if c.rec != nil {
			c.rec.addWithID(cycle, "control.cycle", 0, t0, time.Now())
		}
	}
	return nil
}

func dedupe(names []string) []string {
	seen := map[string]bool{}
	out := names[:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// report writes the control loop's metrics: the demoted end-to-end ones
// and the per-operation medians.
func (c *control) report(m metricSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	neg := sorted(c.ops["station.negotiate"])
	m.setN("admit_ms_p50", percentile(neg, 50), len(neg))
	m.setN("admit_ms_p90", percentile(neg, 90), len(neg))
	if d := c.stopped.Sub(c.started).Seconds(); d > 0 {
		m.setN("control_cycles_per_s", float64(c.cycles)/d, c.cycles)
	}
	for _, op := range []string{
		"station.negotiate", "station.admittxn", "station.releasetxn", "station.evict", "station.admit_live",
		"cluster.new", "cluster.negotiate", "cluster.failchannel",
	} {
		v := c.ops[op]
		m.setN(op+"_ms_p50", median(v), len(v))
	}
}
