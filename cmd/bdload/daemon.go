package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"text/template"
	"time"

	"pinbcast"
	"pinbcast/internal/workload"
)

// configTemplate is bdserved's configuration, rewritten per run: the
// daemon only ever sees this generated file. Ports are ephemeral and
// read back from the boot lines. The drain deadline is short because a
// benchmark teardown has no in-flight guarantee worth a data cycle.
var configTemplate = template.Must(template.New("bdserved.toml").Parse(`# generated by bdload for workload {{.Name}}
[station]
files = {{.Files}}
faults = {{.Faults}}
seed = {{.Seed}}
block_size = {{.BlockSize}}
slot_interval = "{{.SlotInterval}}"
channels = {{.Channels}}
replicas = {{.Replicas}}
shard = "{{.Shard}}"

[listen]
data = "127.0.0.1:0"
ops = "127.0.0.1:0"

[drain]
timeout = "{{.DrainTimeout}}"
`))

// daemonConfig is the data configTemplate renders.
type daemonConfig struct {
	Name         string
	Files        int
	Faults       int
	Seed         int64
	BlockSize    int
	SlotInterval time.Duration
	Channels     int
	Replicas     int
	Shard        string
	DrainTimeout time.Duration
}

func renderConfig(cfg daemonConfig) (string, error) {
	var b strings.Builder
	if err := configTemplate.Execute(&b, cfg); err != nil {
		return "", err
	}
	return b.String(), nil
}

// bootLine is one parsed line of bdserved's start-up output.
type bootLine struct {
	ops       bool   // the ops listener line; else a data channel line
	channel   int    // data channel index
	addr      string // host:port
	bandwidth int    // blocks per time unit (data lines)
	cycle     int    // data cycle in slots (data lines)
}

// parseBootLine recognises the two line shapes bdserved prints at boot:
//
//	data channel 0 listening on 127.0.0.1:40001 (bandwidth 3, data cycle 240)
//	ops listening on http://127.0.0.1:40002
func parseBootLine(line string) (bootLine, bool) {
	if addr, ok := strings.CutPrefix(line, "ops listening on http://"); ok && addr != "" {
		return bootLine{ops: true, addr: addr}, true
	}
	var bl bootLine
	n, err := fmt.Sscanf(line, "data channel %d listening on %s (bandwidth %d, data cycle %d)",
		&bl.channel, &bl.addr, &bl.bandwidth, &bl.cycle)
	if err != nil || n != 4 {
		return bootLine{}, false
	}
	return bl, true
}

// daemon is a running bdserved child.
type daemon struct {
	cmd      *exec.Cmd
	channels []bootLine
	ops      string

	exited  chan struct{} // closed once Wait has returned
	waitErr error         // Wait's result; read only after exited is closed
}

// bootTimeout bounds how long bdserved may take to print its listeners.
const bootTimeout = 20 * time.Second

// startDaemon spawns bdserved on the config and waits for every
// listener's boot line.
func startDaemon(bin, config string, channels int) (*daemon, error) {
	cmd := exec.Command(bin, "-config", config)
	cmd.Stderr = os.Stderr
	// However bdload ends — the hard timeout, a panic — no child
	// survives it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bdserved: %w", err)
	}
	d := &daemon{cmd: cmd, channels: make([]bootLine, channels), exited: make(chan struct{})}
	lines := make(chan string, 16) // boot lines; the reader never blocks on a slow parser
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // past boot nobody listens; drop
			}
		}
		close(lines)
		// Wait only after stdout is drained, as os/exec requires.
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	seen := 0
	deadline := time.After(bootTimeout)
	for seen < channels || d.ops == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				d.stop()
				return nil, errors.New("bdserved exited before listening")
			}
			bl, ok := parseBootLine(line)
			switch {
			case !ok:
			case bl.ops:
				d.ops = bl.addr
			case bl.channel >= 0 && bl.channel < channels:
				d.channels[bl.channel] = bl
				seen++
			}
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("bdserved printed %d of %d listeners within %s", seen, channels, bootTimeout)
		}
	}
	return d, nil
}

// alive reports an error once the child has exited.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("bdserved exited early: %v", d.waitErr)
	default:
		return nil
	}
}

// termGrace is how long bdserved gets between SIGTERM and SIGKILL.
const termGrace = 3 * time.Second

// stop ends the child — SIGTERM, then SIGKILL after termGrace — and
// returns once it has been reaped.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(termGrace):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// scrape fetches the daemon's /metrics and sums every family's samples
// by bare metric name (labels dropped), also reporting how long the
// request took.
func (d *daemon) scrape() (map[string]float64, time.Duration, error) {
	t0 := time.Now()
	resp, err := http.Get("http://" + d.ops + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	took := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(string(body)), took, nil
}

// parseExposition reads Prometheus text format into name → summed value.
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		name := line[:cut]
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			name = name[:brace]
		}
		out[name] += v
	}
	return out
}

// daemonChannels and daemonReplicas are the cluster shape of the paced
// workload: every file on both channels' plan, the hottest replicated.
const (
	daemonChannels = 2
	daemonReplicas = 2
)

func buildDaemonPaced(r *run) (*system, error) {
	s := r.spec
	cfg := daemonConfig{
		Name: s.name, Files: s.files, Faults: s.faults, Seed: catalogueSeed, BlockSize: s.blockSize,
		SlotInterval: s.interval, Channels: daemonChannels, Replicas: daemonReplicas, Shard: "balanced",
		DrainTimeout: 100 * time.Millisecond,
	}
	text, err := renderConfig(cfg)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.env.workDir, "bdserved.toml")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return nil, err
	}
	d, err := startDaemon(r.env.bdserved, path, cfg.Channels)
	if err != nil {
		return nil, err
	}

	// Regenerate what the daemon generated from the same config: names
	// (for the directory), contents (to verify against) and, with the
	// bandwidth from the boot line, every file's window.
	files := s.catalogue()
	contents := workload.Contents(files, cfg.BlockSize, cfg.Seed)
	directory := make(map[uint32]string, len(files))
	for _, f := range files {
		directory[pinbcast.FileID(f.Name)] = f.Name
	}

	var srcs []pinbcast.Source
	var traced []*tracedSource
	closeSrcs := func() {
		for _, src := range srcs {
			src.Close()
		}
	}
	for _, ch := range d.channels {
		src, err := pinbcast.DialSource(ch.addr)
		if err != nil {
			closeSrcs()
			d.stop()
			return nil, err
		}
		src.Reuse = true
		// The read timeout doubles as the MultiTuner's missed-slot
		// clock; a second is a thousand slot intervals.
		src.Timeout = time.Second
		if ts := r.traced(src); ts != nil {
			ts.gaps = make([]float64, 0, 1<<14)
			traced = append(traced, ts)
			srcs = append(srcs, ts)
		} else {
			srcs = append(srcs, src)
		}
	}
	if err := firstSlot(srcs...); err != nil {
		closeSrcs()
		d.stop()
		return nil, err
	}
	mt, err := pinbcast.NewMultiTuner(srcs, pinbcast.WithTunerDirectory(directory))
	if err != nil {
		closeSrcs()
		d.stop()
		return nil, err
	}
	tuner := newTunerClient(mt, traced)
	pid := d.cmd.Process.Pid
	metric := func(name string) func() (float64, error) {
		return func() (float64, error) {
			m, _, err := d.scrape()
			return m[name], err
		}
	}
	sys := &system{
		clients: []retriever{tuner},
		files:   files, contents: contents,
		// Every channel runs at the whole catalogue's Equation-2
		// bandwidth, so a file's window is the same wherever it is read.
		deadline: windows(files, d.channels[0].bandwidth),
		emitted:  metric("pin_station_slots_total"),
		evicted:  metric("pin_fanout_evictions_total"),
		cpu:      func() (cpuTime, error) { return procCPU(pid) },
		peakRSS:  func() (float64, error) { return procPeakRSSMB(pid) },
		health:   d.alive,
	}
	if r.tr != nil {
		poll := newPoller(d)
		sys.warmed = poll.start
		sys.finish = func(m metricSet) {
			poll.stop()
			poll.report(m)
			tm := mt.Metrics()
			m.set("multituner.hops", float64(tm.Hops))
			m.set("multituner.failed", float64(tm.Failed))
		}
	}
	sys.close = func() error {
		err := tuner.close()
		d.stop()
		return err
	}
	return sys, nil
}

// poller scrapes the daemon's /metrics at a low rate through the traced
// window: the observability plane measured as a layer, and the only way
// to see the child's fan-out from outside.
type poller struct {
	d       *daemon
	started bool
	quit    chan struct{}
	done    chan struct{}

	scrapeMs   []float64
	maxDepth   float64
	first, end map[string]float64
}

const pollEvery = 250 * time.Millisecond

func newPoller(d *daemon) *poller {
	return &poller{d: d, quit: make(chan struct{}), done: make(chan struct{})}
}

func (p *poller) start() {
	p.started = true
	go func() {
		defer close(p.done)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			m, took, err := p.d.scrape()
			if err == nil {
				if p.first == nil {
					p.first = m
				}
				p.end = m
				p.scrapeMs = append(p.scrapeMs, took.Seconds()*1e3)
				p.maxDepth = max(p.maxDepth, m["pin_fanout_queue_depth"])
			}
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
}

func (p *poller) stop() {
	if p.started {
		close(p.quit)
		<-p.done
	}
}

func (p *poller) report(m metricSet) {
	m.setN("daemon.scrape_ms", median(p.scrapeMs), len(p.scrapeMs))
	m.set("fanout.queue_depth_max", p.maxDepth)
	if p.first == nil {
		return
	}
	delta := func(name string) float64 { return p.end[name] - p.first[name] }
	if flushes := delta("pin_fanout_writev_batch_frames_count"); flushes > 0 {
		m.setN("fanout.writev_batch_mean", delta("pin_fanout_writev_batch_frames_sum")/flushes, int(flushes))
	}
}
