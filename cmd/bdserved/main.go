// Command bdserved is the ops-grade daemon mode of the broadcast disk:
// a long-running K-channel Cluster (one channel by default)
// broadcasting a synthetic catalog over TCP fan-out, with the
// observability plane served over HTTP:
//
//	bdserved -config bdserved.toml
//
// The config file is a TOML subset (see LoadConfig); with no -config
// every default applies and both listeners bind ephemeral loopback
// ports. The daemon prints one line per listener at boot:
//
//	data channel 0 listening on 127.0.0.1:40001
//	ops listening on http://127.0.0.1:40002
//
// then, per channel, how much of the air its program leaves idle, how
// much of that the paced station wins back (pinbcast.Station.Emission; a
// cluster plans a replicated file's spare air on its first channel only)
// and what it buys: the expected retrieval latency over the window B·Tᵢ,
// averaged over the channel's files, on what is served and on what is
// scheduled:
//
//	channel 0 reclaims 76 of 77 idle slots per period: expected retrieval 0.29 of the window, 0.49 on the program alone
//	channel 1 reclaims 75 of 75 idle slots per period: expected retrieval 0.29 of the window, 0.54 on the program alone
//
// and, for a cluster that carries files on several channels, that their
// homes split one code between them (pinbcast.Cluster), which is what a
// tuner listening to all of them pools:
//
//	cluster disperses 4 replicated files 2x wide: each home sends its own blocks
//
// The ops listener serves Prometheus text-format metrics at /metrics
// (station, fan-out, cluster and receiver families; the registry's one
// exposition), the process's expvar (memstats, cmdline) at
// /debug/vars, pprof at /debug/pprof, and at /debug/trace the last
// slot events (served, flushed, corrupted, hopped, …) as JSON Lines —
// what happened just before now.
//
// On SIGTERM or SIGINT the daemon drains gracefully: each channel
// keeps broadcasting until its next data-cycle boundary, where the
// program's block rotation ends — a window that began early enough in
// the cycle completes on air; a retrieval straddling a boundary (this
// one, or a generation swap) is bounded by one window per generation it
// touched (bdload finding 6; the ROADMAP's conformance oracle owns the
// bound) — then the fan-outs close, the ops listener shuts down, and the
// process exits 0; past drain.timeout a channel is cut off hard.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pinbcast"
	"pinbcast/internal/obs"
	"pinbcast/internal/workload"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	os.Exit(mainRun(os.Args[1:], sigs, os.Stdout, os.Stderr))
}

// mainRun holds main's body with its dependencies injected: the test
// drives it with a fabricated signal channel and captured writers.
func mainRun(args []string, sigs <-chan os.Signal, stdout, stderr io.Writer) int {
	configPath := ""
	switch {
	case len(args) == 2 && args[0] == "-config":
		configPath = args[1]
	case len(args) == 0:
	default:
		fmt.Fprintln(stderr, "usage: bdserved [-config FILE]")
		return 2
	}
	cfg := DefaultConfig()
	if configPath != "" {
		var err error
		cfg, err = LoadConfig(configPath)
		if err != nil {
			fmt.Fprintln(stderr, "bdserved:", err)
			return 2
		}
	}
	if err := serve(cfg, sigs, stdout); err != nil {
		fmt.Fprintln(stderr, "bdserved:", err)
		return 1
	}
	return 0
}

// channel is one broadcast channel's serving state: its station, its
// slot stream, its fan-out, and the data cycle its drain boundary snaps
// to.
type channel struct {
	st    *pinbcast.Station
	slots <-chan pinbcast.Slot
	fan   *pinbcast.Fanout
	cycle int
}

// expectedShare returns the mean over the station's files of the
// fault-free retrieval latency p gives a listener tuning in at a random
// slot, as a share of the file's window B·Tᵢ.
func expectedShare(p *pinbcast.Program, st *pinbcast.Station) (share float64) {
	files := st.Files()
	for _, f := range files {
		mean, _ := p.LatencyProfile(p.FileIndex(f.Name))
		share += mean / float64(st.Bandwidth()*f.Latency)
	}
	return share / float64(len(files))
}

// serve runs the daemon: build the catalog, bring up the data plane
// (a Cluster of K stations), serve the ops endpoints, pump slots
// until a signal arrives, then drain each channel to its data-cycle
// boundary.
func serve(cfg Config, sigs <-chan os.Signal, stdout io.Writer) error {
	files := workload.Random(cfg.Files, maxFileBlocks, 10, 80, 0, cfg.Seed)
	for i := range files {
		files[i].Faults = cfg.Faults
	}
	contents := workload.Contents(files, cfg.BlockSize, cfg.Seed)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	chans, cl, err := buildChannels(ctx, cfg, files, contents, stdout)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range chans {
			c.fan.Close()
		}
	}()

	ops, err := net.Listen("tcp", cfg.Ops)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: obs.NewOpsMux(obs.Default())}
	opsDone := make(chan error, 1)
	go func() { opsDone <- srv.Serve(ops) }()
	fmt.Fprintf(stdout, "ops listening on http://%s\n", ops.Addr())
	for i, c := range chans {
		// What is served against what is scheduled, not a plan re-derived.
		prog, emission := c.st.Program(), c.st.Emission()
		reclaimed, idle := 0, prog.Period
		for f := range prog.Files {
			idle -= prog.PerPeriod(f)
			reclaimed += emission.PerPeriod(f) - prog.PerPeriod(f)
		}
		fmt.Fprintf(stdout, "channel %d reclaims %d of %d idle slots per period: expected retrieval %.2f of the window, %.2f on the program alone\n",
			i, reclaimed, idle, expectedShare(emission, c.st), expectedShare(prog, c.st))
	}
	replicated := 0
	for _, homes := range cl.Assignment() {
		if len(homes) > 1 {
			replicated++
		}
	}
	if replicated > 0 {
		fmt.Fprintf(stdout, "cluster disperses %d replicated files %dx wide: each home sends its own blocks\n", replicated, cl.Replicas())
	}

	// Pump every channel until the drain completes; drain closes when a
	// signal arrives, releasing each pump at its next cycle boundary.
	drain := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range chans {
		wg.Add(1)
		go func(i int, c channel) {
			defer wg.Done()
			pumpChannel(ctx, i, c, drain)
		}(i, c)
	}

	select {
	case sig, ok := <-sigs:
		if ok {
			fmt.Fprintf(stdout, "received %v, draining to data-cycle boundaries (deadline %s)\n", sig, cfg.Timeout)
		}
	case <-ctx.Done():
	}
	close(drain)
	// The drain deadline is a backstop: a channel that cannot reach its
	// boundary in time is cut off by cancelling the serve context.
	timer := time.AfterFunc(cfg.Timeout, cancel)
	wg.Wait()
	timer.Stop()
	cancel()

	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), time.Second)
	defer shutdownCancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
	}
	if err := <-opsDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "drained, exiting")
	return nil
}

// buildChannels brings up the data plane: a Cluster of K stations (one
// when channels = 1), each streaming through its own TCP fan-out. The
// configured data address is the base: port 0 gives every channel an
// ephemeral port, a fixed port p puts channel i on p+i.
func buildChannels(ctx context.Context, cfg Config, files []pinbcast.FileSpec, contents map[string][]byte, stdout io.Writer) ([]channel, *pinbcast.Cluster, error) {
	listen := func(i int) (net.Listener, error) {
		host, portStr, err := net.SplitHostPort(cfg.Data)
		if err != nil {
			return nil, fmt.Errorf("listen.data %q: %w", cfg.Data, err)
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			return nil, fmt.Errorf("listen.data %q: %w", cfg.Data, err)
		}
		if port != 0 {
			port += i
		}
		return net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(port)))
	}

	replicas := cfg.Replicas
	if cfg.Channels == 1 {
		replicas = 1 // station.replicas is read only with several channels
	}
	cl, err := pinbcast.NewCluster(
		pinbcast.WithChannels(cfg.Channels),
		pinbcast.WithReplicas(replicas),
		pinbcast.WithShardName(cfg.Shard),
		pinbcast.WithBandwidth(pinbcast.SufficientBandwidth(files)),
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(contents),
		pinbcast.WithSlotBuffer(256), pinbcast.WithSlotInterval(cfg.SlotInterval),
	)
	if err != nil {
		return nil, nil, err
	}
	streams, err := cl.Serve(ctx)
	if err != nil {
		return nil, nil, err
	}
	chans := make([]channel, len(streams))
	for i, slots := range streams {
		ln, err := listen(i)
		if err != nil {
			for j := 0; j < i; j++ {
				chans[j].fan.Close()
			}
			return nil, nil, err
		}
		fan := pinbcast.NewFanout(ln, 0)
		st := cl.Station(i)
		fmt.Fprintf(stdout, "data channel %d listening on %s (bandwidth %d, data cycle %d)\n",
			i, fan.Addr(), st.Bandwidth(), st.Program().DataCycle())
		chans[i] = channel{st: st, slots: slots, fan: fan, cycle: st.Program().DataCycle()}
	}
	return chans, cl, nil
}

// pumpChannel streams one channel's slots into its fan-out until the
// drain closes and the next data-cycle boundary is reached (or the
// serve context is cancelled — the drain deadline's hard cutoff). The
// boundary rule is the same one online admission lands on: stopping at
// slot T with (T+1) divisible by the data cycle ends on a whole block
// rotation (see the package comment for what that promises a reader).
func pumpChannel(ctx context.Context, i int, c channel, drain <-chan struct{}) {
	draining := false
	for {
		select {
		case <-ctx.Done():
			return
		case <-drain:
			draining = true
			drain = nil // a closed channel would spin the select
		case slot, ok := <-c.slots:
			if !ok {
				return
			}
			if err := c.fan.Send(slot); err != nil {
				return
			}
			if draining && c.cycle > 0 && (slot.T+1)%c.cycle == 0 {
				return
			}
		}
	}
}
