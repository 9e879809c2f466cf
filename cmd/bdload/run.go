package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pinbcast/internal/obs"
)

var selfPID = os.Getpid()

// instances is how many fresh set-ups an untraced run spreads its
// measured seconds over. One live pipeline settles into a regime of its
// own — which goroutine leads, whether the daemon's two tickers fire
// together or apart — that holds for its lifetime and differs by ±10 %
// from the next; a run that measured one instance would report the
// luck of its draw. Each instance is warmed up and measured for
// seconds/instances; segment rates are pooled over instances.
const instances = 8

// extraSetups is how many more times a run sets the workload up and
// tears it down without measuring on it, so that setup_s — a few
// milliseconds on the in-process workloads — is the median of
// instances+extraSetups samples.
const extraSetups = 16

// warmUp is how long a live set-up runs before anything is counted, so
// that pools, inverse caches and socket buffers are in steady state.
// Short runs (the smoke tests) warm up for a tenth of their window.
func warmUp(measure time.Duration) time.Duration {
	return min(1500*time.Millisecond, measure/10)
}

// segments is how many equal parts one instance's measured window is
// cut into; slot rates and CPU per slot are the median over them, so a
// burst of interference from outside the benchmark moves one segment,
// not the instance's number.
const segments = 5

// probe is the broadcasting side's cumulative work at one instant.
type probe struct {
	cpu     cpuTime // CPU the broadcasting process has used
	emitted float64 // slots it has emitted
}

// windowStats is what one measured window yields.
type windowStats struct {
	loops     []*requestLoop
	probes    []probe // the window's edges and every segment boundary between
	evicted   float64
	unhealthy error
}

// cpu is the broadcasting process's CPU over the whole window.
func (ws *windowStats) cpu() cpuTime {
	return ws.probes[len(ws.probes)-1].cpu.sub(ws.probes[0].cpu)
}

// runWindow drives every client of a live system through warm-up and a
// measured window, hands the window to collect while the system is
// still up (probes that need it alive go there), and tears the system
// down. It owns the tear-down on every path: the clients keep listening
// until the system closes under them, so nothing may wait for them
// before that.
func runWindow(sys *system, r *run, measure time.Duration, collect func(*windowStats)) (*windowStats, error) {
	var phase atomic.Int32
	ws := &windowStats{}
	var tails sync.WaitGroup                     // the loops, listening until the system closes
	errs := make(chan error, len(sys.clients)+1) // exactly one send per loop and one for the background
	for i, cl := range sys.clients {
		l := &requestLoop{
			cl: cl, files: sys.files, contents: sys.contents, deadline: sys.deadline,
			rng:   rand.New(rand.NewSource((r.seed*7919+int64(r.instance))*31 + int64(i))),
			phase: &phase, segment: measure / segments, generation: sys.generation,
		}
		if r.tr != nil {
			l.rec = r.tr.recorder()
		}
		ws.loops = append(ws.loops, l)
		tails.Add(1)
		go func() {
			defer tails.Done()
			l.run(errs)
		}()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	running := len(sys.clients)
	if sys.background != nil {
		running++
		go func() { errs <- sys.background(ctx) }()
	}
	// wait sleeps through a phase, returning early if anything fails.
	wait := func(d time.Duration) error {
		select {
		case err := <-errs:
			running--
			if err == nil {
				err = errors.New("the control loop stopped before the run did")
			}
			return err
		case <-time.After(d):
			return nil
		}
	}
	// finish stops everything: the phase change ends sampling, closing
	// the system ends the loops' tails (and fails any retrieval still
	// being sampled), and every goroutine started here is joined.
	finish := func(err error) error {
		phase.Store(phaseStop)
		cancel()
		if cerr := sys.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
		for ; running > 0; running-- {
			if lerr := <-errs; err == nil {
				err = lerr
			}
		}
		tails.Wait()
		return err
	}

	if err := wait(warmUp(measure)); err != nil {
		return nil, finish(err)
	}
	take := func() error {
		cpu, err := sys.cpu()
		if err != nil {
			return err
		}
		emitted, err := sys.emitted()
		if err != nil {
			return err
		}
		ws.probes = append(ws.probes, probe{cpu, emitted})
		return nil
	}
	if sys.warmed != nil {
		sys.warmed()
	}
	if err := take(); err != nil {
		return nil, finish(err)
	}
	phase.Store(phaseMeasure)
	for range segments {
		if err := wait(measure / segments); err != nil {
			return nil, finish(err)
		}
		if err := take(); err != nil {
			return nil, finish(err)
		}
	}
	phase.Store(phaseStop)
	cancel()
	// Every loop reports once its window is recorded; all of them keep
	// listening, so none of them can be starved of slots meanwhile.
	var firstErr error
	for ; running > 0; running-- {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, finish(firstErr)
	}
	var err error
	if ws.evicted, err = sys.evicted(); err != nil {
		return nil, finish(err)
	}
	if sys.health != nil {
		ws.unhealthy = sys.health()
	}
	if collect != nil {
		collect(ws)
	}
	return ws, finish(nil)
}

// verdict is the correctness gate's outcome for one window.
type verdict struct {
	attempted int
	failed    int            // failed + wrong bytes + late
	reasons   map[string]int // named reason → count: what went wrong, and findings
	correct   bool           // nothing but late retrievals went wrong
}

// merge adds another window's verdict, its reasons under a prefix.
func (v *verdict) merge(o verdict, prefix string) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.correct = v.correct && o.correct
	for reason, n := range o.reasons {
		v.reasons[prefix+reason] += n
	}
}

// judge applies the correctness gate: every retrieval was classified
// against the generated contents and its window when it was sampled;
// an eviction or a daemon that stopped on its own fails the run too.
func (ws *windowStats) judge() verdict {
	v := verdict{reasons: map[string]int{}, correct: true}
	for _, l := range ws.loops {
		for _, s := range l.samples {
			v.attempted++
			if s.fault == verified && s.latency > s.deadline {
				// Inside the (k+1)-window bound, but past the single
				// window a contract names: a finding, not a failure.
				v.reasons["over-one-window-across-swap"]++
			}
			if s.fault != verified {
				v.failed++
				v.reasons[s.fault.String()]++
				if s.fault != late {
					v.correct = false
				}
			}
		}
	}
	if ws.evicted > 0 {
		v.reasons["fanout-evicted"] = int(ws.evicted)
		v.correct = false
	}
	if ws.unhealthy != nil {
		v.reasons["daemon-exited"] = 1
		v.correct = false
	}
	if v.attempted == 0 {
		v.reasons["no-retrievals"] = 1
		v.correct = false
	}
	return v
}

// rates returns, for every segment between a loop's marks, how fast a
// cumulative quantity grew, per second.
func (l *requestLoop) rates(quantity func(mark) float64) []float64 {
	var out []float64
	for k := 1; k < len(l.marks); k++ {
		if d := l.marks[k].at.Sub(l.marks[k-1].at).Seconds(); d > 0 {
			out = append(out, (quantity(l.marks[k])-quantity(l.marks[k-1]))/d)
		}
	}
	return out
}

// connRates returns, per connection of the loop, the slot rate of every
// segment of its window.
func (l *requestLoop) connRates() [][]float64 {
	out := make([][]float64, len(l.marks[0].tally.slots))
	for i := range out {
		out[i] = l.rates(func(m mark) float64 { return float64(m.tally.slots[i]) })
	}
	return out
}

// received returns the slots the loop consumed over its window, averaged
// over its connections.
func (l *requestLoop) received() float64 {
	first, last := l.window()
	n := 0
	for i := range last.tally.slots {
		n += last.tally.slots[i] - first.tally.slots[i]
	}
	return float64(n) / float64(len(last.tally.slots))
}

// slotsPerS is one window's slots received per second — each
// connection's median over the window's segments, averaged over every
// receiver connection. (The traced run compares two single windows with
// it; the slots_per_s a run reports comes from rateMetrics instead.)
func (ws *windowStats) slotsPerS() float64 {
	var perConn []float64
	for _, l := range ws.loops {
		for _, rates := range l.connRates() {
			perConn = append(perConn, median(rates))
		}
	}
	return mean(perConn)
}

// cpuPerSlot is the broadcasting process's CPU per emitted slot in
// microseconds, the median over the window's segments.
func (ws *windowStats) cpuPerSlot() float64 {
	var per []float64
	for k := 1; k < len(ws.probes); k++ {
		if slots := ws.probes[k].emitted - ws.probes[k-1].emitted; slots > 0 {
			per = append(per, ws.probes[k].cpu.sub(ws.probes[k-1].cpu).total().Seconds()*1e6/slots)
		}
	}
	return median(per)
}

// quietQuartile is the percentile of the pooled segment rates that the
// slot rate is reported at: the upper quartile. Whatever else runs on
// the machine can only take time away from a saturated pipeline, so the
// noise on a segment's rate is one-sided, and the quartile on the quiet
// side repeats from run to run where the median follows the neighbours'
// load (README.md has the numbers).
const quietQuartile = 75

// rateMetrics turns windows into the wall-clock rates. Segment rates are
// pooled over the windows per connection and read at quietQuartile. A
// retrieval count per segment would be too small to do the same on the
// paced workload, so retrievals and bytes are reported through their
// yield per slot received — which the schedule fixes — times the slot
// rate.
func rateMetrics(m metricSet, all []*windowStats) {
	type pooled struct {
		rates     [][]float64 // per connection, every window's segments
		ok, bytes int
		slots     float64 // received, averaged over the loop's connections
	}
	loops := make([]pooled, len(all[0].loops))
	for _, ws := range all {
		for li, l := range ws.loops {
			p := &loops[li]
			for i, rates := range l.connRates() {
				if len(p.rates) <= i {
					p.rates = append(p.rates, nil)
				}
				p.rates[i] = append(p.rates[i], rates...)
			}
			p.slots += l.received()
			for _, s := range l.samples {
				if s.fault == verified || s.fault == late {
					p.ok++
					p.bytes += int(s.bytes)
				}
			}
		}
	}
	var connRates []float64
	var perS, mbps float64
	segs, n := 0, 0
	for _, p := range loops {
		var own []float64
		for _, rates := range p.rates {
			own = append(own, percentile(sorted(rates), quietQuartile))
			segs += len(rates)
		}
		connRates = append(connRates, own...)
		perS += float64(p.ok) / p.slots * mean(own)
		mbps += float64(p.bytes) / 1e6 / p.slots * mean(own)
		n += p.ok
	}
	m.setN("slots_per_s", mean(connRates), segs)
	m.setN("retrievals_per_s", perS, n)
	m.set("goodput_MBps", mbps)
}

// ratioMetrics turns the instances' windows into the latencies a user
// holds against the contract, as shares of the window B·Tᵢ. Percentiles
// are taken over every retrieval of every instance. The slot interval
// the wall-clock contract is scaled by is the configured one when the
// broadcast is paced and the loop's own achieved mean when it is
// consumer-paced, so the ratio reads "how much of its window, at the
// rate the air actually ran, did a retrieval take" — and does not move
// when the whole host runs slower.
func ratioMetrics(m metricSet, all []*windowStats, interval time.Duration) {
	var slotRatio, wallRatio []float64
	for _, ws := range all {
		for _, l := range ws.loops {
			first, last := l.window()
			tick := interval.Seconds()
			if tick == 0 {
				tick = last.at.Sub(first.at).Seconds() / l.received()
			}
			for _, s := range l.samples {
				if s.fault != failed {
					slotRatio = append(slotRatio, float64(s.latency)/float64(s.deadline))
					wallRatio = append(wallRatio, s.wall.Seconds()/(float64(s.deadline)*tick))
				}
			}
		}
	}
	n := len(slotRatio)
	m.setN("contract_ratio_p95", percentile(sorted(slotRatio), 95), n)
	asc := sorted(wallRatio)
	m.setN("wall_contract_ratio_p50", percentile(asc, 50), n)
	m.setN("wall_contract_ratio_p95", percentile(asc, 95), n)
}

// measureEndToEnd is the untraced run: instances fresh set-ups, each
// warmed up and measured for its share of the seconds.
func measureEndToEnd(r *run, measure time.Duration) (metricSet, verdict, error) {
	var all []*windowStats
	var setups []float64
	var rss float64
	total := verdict{reasons: map[string]int{}, correct: true}
	for i := range extraSetups {
		t0 := time.Now()
		sys, err := r.spec.build(r)
		if err != nil {
			return nil, verdict{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := sys.close(); err != nil {
			return nil, verdict{}, fmt.Errorf("tearing down set-up %d: %w", i+1, err)
		}
	}
	for i := range instances {
		// Start every instance from a collected heap, so that the peak
		// resident size reflects an instance's own working set and not
		// when the collector last happened to run.
		runtime.GC()
		inst := *r
		inst.instance = i
		t0 := time.Now()
		sys, err := inst.spec.build(&inst)
		if err != nil {
			return nil, verdict{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		var rssErr error
		ws, err := runWindow(sys, &inst, measure/instances, func(*windowStats) {
			var peak float64
			peak, rssErr = sys.peakRSS()
			rss = max(rss, peak)
		})
		if err == nil {
			err = rssErr
		}
		if err != nil {
			return nil, verdict{}, fmt.Errorf("instance %d: %w", i+1, err)
		}
		all = append(all, ws)
		total.merge(ws.judge(), "")
	}
	m := metricSet{}
	m.setN("setup_s", median(setups), len(setups))
	m.set("peak_rss_MB", rss)
	ratioMetrics(m, all, r.spec.interval)
	rateMetrics(m, all) // printed, not in the result line: see rateNames
	return m, total, nil
}

// Shares of -seconds a traced run gives to its untraced reference
// window, its traced window, and its isolated layer timings.
const (
	referenceShare = 0.30
	tracedShare    = 0.40
	isolatedShare  = 0.25
)

// measureLayers is the traced run: an untraced reference window (for
// the tracing overhead and the CPU per slot the budget is held against),
// a fresh set-up traced, then the isolated layer timings with nothing
// else alive.
func measureLayers(r *run, seconds time.Duration, outDir string, log io.Writer) (metricSet, verdict, error) {
	share := func(s float64) time.Duration { return time.Duration(float64(seconds) * s) }
	m := metricSet{}

	sys, err := r.spec.build(r)
	if err != nil {
		return nil, verdict{}, err
	}
	ref, err := runWindow(sys, r, share(referenceShare), nil)
	if err != nil {
		return nil, verdict{}, fmt.Errorf("reference window: %w", err)
	}
	v := ref.judge()
	rateMetrics(m, []*windowStats{ref})
	m.setN("miss_ratio", float64(v.failed)/float64(max(v.attempted, 1)), v.attempted)
	cpuPerSlot := ref.cpuPerSlot() // µs
	m.set("cpu_us_per_slot", cpuPerSlot)
	if tick := r.spec.interval; tick > 0 {
		m.set("daemon.slot_rate_ratio", ref.slotsPerS()*tick.Seconds())
		m.set("daemon.cpu_sys_share", float64(ref.cpu().sys)/float64(ref.cpu().total()))
	}

	tr := newTracer()
	traced := *r
	traced.tr = tr
	batch := obs.Default().Histogram("pin_fanout_writev_batch_frames", "")
	flushes0, frames0 := batch.Count(), batch.Sum()
	sys, err = traced.spec.build(&traced)
	if err != nil {
		return nil, verdict{}, err
	}
	tw, err := runWindow(sys, &traced, share(tracedShare), func(*windowStats) {
		if sys.finish != nil {
			sys.finish(m)
		}
	})
	if err != nil {
		return nil, verdict{}, fmt.Errorf("traced window: %w", err)
	}
	// The wrappers are read only now, with every goroutine that wrote
	// them joined.
	liveLayerMetrics(m, sys, tw, r.spec.interval)
	if flushes := batch.Count() - flushes0; flushes > 0 && sys.sink != nil {
		m.setN("fanout.writev_batch_mean", float64(batch.Sum()-frames0)/float64(flushes), int(flushes))
	}
	tv := tw.judge()
	tv.attempted, tv.failed = 0, 0 // the run's counts are the untraced window's
	v.merge(tv, "traced:")
	m.set("trace.overhead_ratio", tw.slotsPerS()/ref.slotsPerS())

	if err := isolatedLayers(m, r, share(isolatedShare)); err != nil {
		return nil, verdict{}, fmt.Errorf("isolated layers: %w", err)
	}
	sum := r.spec.budget(m)
	m.set("budget.sum_ns_per_slot", sum)
	m.set("budget.unexplained_ratio", 1-sum/(cpuPerSlot*1e3))

	counts := map[string]float64{}
	for name, v := range m {
		counts[name] = v.value
	}
	path, err := tr.write(outDir, r.spec.name, counts)
	if err != nil {
		return nil, verdict{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(log, "trace: %s\n", path)
	return m, v, nil
}

// liveLayerMetrics reads the per-layer numbers the wrappers collected
// during the traced window.
func liveLayerMetrics(m metricSet, sys *system, tw *windowStats, interval time.Duration) {
	var nextShare, complete, gaps []float64
	stored, heard, corrupted := 0, 0, 0
	for _, l := range tw.loops {
		first, last := l.window()
		d := last.at.Sub(first.at)
		if n := len(l.cl.traces()); n > 0 && d > 0 {
			nextShare = append(nextShare, float64(l.next1-l.next0)/float64(d)/float64(n))
		}
		for _, ts := range l.cl.traces() {
			gaps = append(gaps, ts.gaps...)
		}
		if rc, ok := l.cl.(*receiverClient); ok {
			complete = append(complete, rc.completeNs...)
		}
		for _, s := range l.samples {
			stored += int(s.blocks)
		}
		heard += last.tally.heard - first.tally.heard
		corrupted += last.tally.corrupted - first.tally.corrupted
	}
	m.set("source.next_wait_share", mean(nextShare))
	if len(complete) > 0 {
		m.setN("receiver.complete_us", median(complete)/1e3, len(complete))
	}
	if heard > 0 {
		m.set("receiver.useful_block_ratio", float64(stored)/float64(heard))
		m.set("receiver.corrupted_ratio", float64(corrupted)/float64(heard))
	}
	if len(gaps) > 0 && interval > 0 {
		m.setN("daemon.interarrival_p99_over_interval", percentile(sorted(gaps), 99)/interval.Seconds(), len(gaps))
	}
	m.set("fanout.evicted", tw.evicted)
	if sk := sys.sink; sk != nil && sk.calls > 0 {
		busy := sk.inSend + sk.waiting
		m.set("station.serve_wait_share", float64(sk.waiting)/float64(busy))
		m.setN("fanout.backpressure_share", float64(sk.slow)/float64(sk.calls), int(sk.calls))
		m.set("fanout.queue_depth_max", float64(sk.maxDepth))
	}
}
