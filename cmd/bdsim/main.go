// Command bdsim runs an end-to-end fault-injection simulation of a
// broadcast disk: it builds a program for a synthetic workload, streams
// it through a lossy channel to a population of clients, and reports
// latency and deadline statistics. With -stream it instead starts a
// live Station and prints the streamed broadcast slots; with -fanout
// it runs the real networked pipeline — Station → TCP fan-out →
// -clients live Receivers — and reports per-client deadline and
// latency statistics; with -cluster it shards the workload across K
// broadcast channels (R-way replication of the hottest files) served
// through K TCP fan-outs to -clients MultiTuners, optionally killing
// one channel mid-broadcast (-kill) to exercise detection, channel
// hopping and failover re-admission.
//
// Usage:
//
//	bdsim [-files 8] [-clients 25] [-loss 0.05] [-burst] [-faults 1] [-seed 1] [-layout pinwheel]
//	bdsim -stream 64 [-files 4]
//	bdsim -fanout [-clients 8] [-files 4] [-loss 0.05]
//	bdsim -cluster 3 -replicas 2 [-shard balanced] [-kill 2] [-clients 6] [-burst]
//	bdsim -fanout -cpuprofile cpu.out -memprofile mem.out
//
// Flag combinations are validated up front: the mode selectors
// (-stream, -fanout, -cluster) are mutually exclusive, and a flag that
// the selected mode would ignore (-clients with -stream, -replicas
// without -cluster, …) is a usage error (exit status 2) rather than
// silently dropped.
//
// -layout selects the program construction strategy (pinwheel, tiered,
// flat-spread, flat-sequential) for the simulation and cluster modes;
// deadlines are always judged against the pinwheel windows, so
// non-real-time layouts show their misses.
//
// -cpuprofile and -memprofile write pprof profiles of the selected run
// mode for field profiling of the data plane (`go tool pprof` reads
// them); the heap profile is captured after the run completes.
//
// -metrics-out writes a JSON snapshot of the metrics registry after
// the run (simulation, -fanout and -cluster modes), and -trace-out
// drains the slot-event trace ring to a JSONL file (one event per
// line; the live -fanout and -cluster modes only).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"pinbcast"
	"pinbcast/internal/obs"
	"pinbcast/internal/workload"
)

func main() {
	os.Exit(mainRun())
}

// mainRun holds main's body so profile-flushing defers run before the
// process exits, whatever the run's outcome.
func mainRun() int {
	nFiles := flag.Int("files", 8, "number of broadcast files")
	nClients := flag.Int("clients", 25, "number of clients")
	loss := flag.Float64("loss", 0.05, "block loss probability")
	burst := flag.Bool("burst", false, "use the Gilbert–Elliott burst model instead of iid")
	faults := flag.Int("faults", 1, "designed per-retrieval fault tolerance r")
	seed := flag.Int64("seed", 1, "random seed")
	stream := flag.Int("stream", 0, "serve this many live Station slots instead of simulating")
	fanout := flag.Bool("fanout", false, "run -clients live Receivers over a TCP fan-out instead of simulating")
	clusterK := flag.Int("cluster", 0, "shard the workload across this many broadcast channels (MultiTuner clients over TCP fan-outs)")
	replicas := flag.Int("replicas", 2, "replicate the hottest files on this many channels (with -cluster)")
	shardName := flag.String("shard", pinbcast.ShardBalanced,
		"shard policy for -cluster (registered: "+strings.Join(pinbcast.ShardNames(), ", ")+")")
	kill := flag.Int("kill", -1, "kill this channel mid-broadcast and fail it over (with -cluster)")
	layoutName := flag.String("layout", "",
		"construction layout for the simulation (default: pinwheel; registered: "+
			strings.Join(pinbcast.LayoutNames(), ", ")+")")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	metricsOut := flag.String("metrics-out", "", "write a JSON snapshot of the metrics registry to this file after the run")
	traceOut := flag.String("trace-out", "", "write the slot-event trace ring as JSONL to this file after the run")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if msg := validateFlags(set, *stream, *fanout, *clusterK, *replicas, *kill, *nFiles, *nClients, *shardName); msg != "" {
		fmt.Fprintf(os.Stderr, "bdsim: %s\n", msg)
		flag.Usage()
		return 2
	}

	// Registered before the CPU-profile defers so that (LIFO) the CPU
	// profile stops before the forced GC and heap write run — tooling
	// overhead must not appear in the captured profile.
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bdsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bdsim:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdsim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bdsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var layout pinbcast.Layout
	if *layoutName != "" {
		l, ok := pinbcast.LookupLayout(strings.ToLower(strings.TrimSpace(*layoutName)))
		if !ok {
			fmt.Fprintf(os.Stderr, "bdsim: unknown layout %q (registered: %s)\n",
				*layoutName, strings.Join(pinbcast.LayoutNames(), ", "))
			return 2
		}
		layout = l
	}

	var err error
	switch {
	case *stream > 0:
		err = runStream(*nFiles, *faults, *seed, *stream)
	case *fanout:
		err = runFanout(*nFiles, *nClients, *loss, *faults, *seed)
	case *clusterK > 0:
		err = runCluster(clusterParams{
			files:    *nFiles,
			clients:  *nClients,
			loss:     *loss,
			burst:    *burst,
			faults:   *faults,
			seed:     *seed,
			channels: *clusterK,
			replicas: *replicas,
			shard:    *shardName,
			kill:     *kill,
			layout:   layout,
		})
	default:
		err = run(*nFiles, *nClients, *loss, *burst, *faults, *seed, layout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdsim:", err)
		return 1
	}
	if *metricsOut != "" {
		if err := writeMetricsOut(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "bdsim:", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeTraceOut(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "bdsim:", err)
			return 1
		}
	}
	return 0
}

// writeMetricsOut dumps the metrics registry as indented JSON — the
// machine-readable twin of the /metrics exposition, for post-run
// analysis of a simulation without standing up an ops listener.
func writeMetricsOut(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceLine is the JSONL schema of one slot-trace event: kind carries
// the wire name ("slot_served", "channel_hop", …), channel is -1 for
// single-channel planes, and aux is kind-specific (generation id,
// writev batch size, failed channel, …).
type traceLine struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Channel int    `json:"channel"`
	File    uint32 `json:"file"`
	T       uint64 `json:"t"`
	Aux     uint64 `json:"aux"`
}

// writeTraceOut drains the slot-event trace ring to a JSONL file, one
// event per line in emission order. The ring overwrites its oldest
// entries, so a long run yields the trailing window, not the full
// history; Seq gaps mark the overwritten span.
func writeTraceOut(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, ev := range obs.Trace().Drain(nil) {
		if err := enc.Encode(traceLine{
			Seq:     ev.Seq,
			Kind:    ev.Kind.String(),
			Channel: ev.Channel,
			File:    ev.File,
			T:       ev.T,
			Aux:     ev.Aux,
		}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// validateFlags rejects flag combinations the selected mode would
// silently ignore or that cannot work, returning a usage message ("" =
// valid). set holds the flag names the user explicitly passed
// (flag.Visit). Mode selection: -stream, -fanout and -cluster are
// mutually exclusive; everything else rides on exactly one mode.
func validateFlags(set map[string]bool, stream int, fanout bool, clusterK, replicas, kill, nFiles, nClients int, shardName string) string {
	selectors := 0
	for _, on := range []bool{stream > 0, fanout, clusterK > 0} {
		if on {
			selectors++
		}
	}
	if selectors > 1 {
		return "conflicting modes: -stream, -fanout and -cluster are mutually exclusive"
	}
	mode := "sim"
	switch {
	case stream > 0:
		mode = "stream"
	case fanout:
		mode = "fanout"
	case clusterK > 0:
		mode = "cluster"
	}
	if set["stream"] && stream <= 0 {
		return "-stream needs a positive slot count"
	}
	if set["cluster"] && clusterK <= 0 {
		return "-cluster needs a positive channel count"
	}

	// Which modes consume which tuning flags; a flag set for a mode that
	// ignores it is an error, not a silent no-op.
	allowed := map[string][]string{
		"clients":  {"sim", "fanout", "cluster"},
		"loss":     {"sim", "fanout", "cluster"},
		"burst":    {"sim", "cluster"},
		"layout":   {"sim", "cluster"},
		"replicas": {"cluster"},
		"shard":    {"cluster"},
		"kill":     {"cluster"},
		// The observability outputs snapshot the instrumented planes: the
		// simulation runs Receivers, which count into the registry, but no
		// Station, so its trace would be empty; -stream touches neither.
		"metrics-out": {"sim", "fanout", "cluster"},
		"trace-out":   {"fanout", "cluster"},
	}
	for name, modes := range allowed {
		if !set[name] {
			continue
		}
		ok := false
		for _, m := range modes {
			if m == mode {
				ok = true
			}
		}
		if !ok {
			return fmt.Sprintf("-%s has no effect with mode %q (valid in: %s)",
				name, mode, strings.Join(modes, ", "))
		}
	}

	if mode == "cluster" {
		switch {
		// The -replicas default (2) is only meaningful for K ≥ 2;
		// an unset flag is clamped in runCluster, so only an explicit
		// value is range-checked.
		case set["replicas"] && (replicas < 1 || replicas > clusterK):
			return fmt.Sprintf("-replicas %d out of range [1, %d]", replicas, clusterK)
		case clusterK > nFiles:
			return fmt.Sprintf("-cluster %d exceeds -files %d (every channel needs a file)", clusterK, nFiles)
		case set["kill"] && (kill < 0 || kill >= clusterK):
			return fmt.Sprintf("-kill %d out of range [0, %d)", kill, clusterK)
		}
		if _, ok := pinbcast.LookupShard(shardName); !ok {
			return fmt.Sprintf("unknown shard policy %q (registered: %s)",
				shardName, strings.Join(pinbcast.ShardNames(), ", "))
		}
	}
	if nClients < 1 && (mode == "sim" || mode == "fanout" || mode == "cluster") {
		return fmt.Sprintf("-clients %d: need at least one client", nClients)
	}
	return ""
}

func run(nFiles, nClients int, loss float64, burst bool, faults int, seed int64, layout pinbcast.Layout) error {
	files := workload.Random(nFiles, 6, 10, 80, 0, seed)
	for i := range files {
		files[i].Faults = faults
	}
	prog, err := pinbcast.Build(pinbcast.BuildConfig{Files: files, Layout: layout})
	if err != nil {
		return err
	}
	// Deadlines are the pinwheel windows at the Eq-2 bandwidth, whatever
	// layout built the program — the real-time yardstick of the paper.
	bw := prog.Bandwidth
	if bw == 0 {
		bw = pinbcast.SufficientBandwidth(files)
	}
	fmt.Printf("layout %s: bandwidth %d blocks/unit (Eq 2), period %d, data cycle %d\n",
		prog.Origin, bw, prog.Period, prog.DataCycle())

	var fault pinbcast.FaultModel
	if burst {
		fault = pinbcast.BurstFaults(loss/2, 0.2, 0.9, seed)
	} else {
		fault = pinbcast.BernoulliFaults(loss, seed)
	}

	contents := workload.Contents(files, 128, seed)
	var clients []pinbcast.ClientSpec
	for c := 0; c < nClients; c++ {
		f := files[c%len(files)]
		clients = append(clients, pinbcast.ClientSpec{
			Start: (c * 37) % (4 * prog.Period),
			Requests: []pinbcast.Request{
				{File: f.Name, Deadline: bw * f.Latency},
			},
		})
	}
	rep, err := pinbcast.Simulate(pinbcast.SimConfig{
		Program:  prog,
		Contents: contents,
		Fault:    fault,
		Clients:  clients,
		Horizon:  64 * prog.DataCycle(),
	})
	if err != nil {
		return err
	}

	fmt.Printf("channel: %s — %d blocks sent, %d corrupted (%.2f%%)\n",
		rep.FaultModel, rep.BlocksSent, rep.BlocksCorrupted,
		100*float64(rep.BlocksCorrupted)/float64(rep.BlocksSent))
	names := make([]string, 0, len(rep.PerFile))
	for name := range rep.PerFile {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-8s %9s %10s %8s %8s %12s %8s\n",
		"file", "requests", "completed", "met", "missed", "mean lat.", "max lat.")
	for _, name := range names {
		st := rep.PerFile[name]
		fmt.Printf("%-8s %9d %10d %8d %8d %12.1f %8d\n",
			name, st.Requests, st.Completed, st.DeadlineMet, st.DeadlineMissed,
			st.MeanLatency, st.MaxLatency)
	}
	fmt.Printf("overall deadline miss ratio: %.2f%%\n", 100*rep.MissRatio())
	return nil
}

// runFanout runs the full networked pipeline on the loopback
// interface: a Station broadcasts through a TCP Fanout to nClients
// live Receivers, each with its own Bernoulli reception-fault stream,
// and per-client deadline-met ratios and reconstruction latencies are
// reported.
func runFanout(nFiles, nClients int, loss float64, faults int, seed int64) error {
	if nClients < 1 {
		return fmt.Errorf("need at least one client, got %d", nClients)
	}
	files := workload.Random(nFiles, 6, 10, 80, 0, seed)
	for i := range files {
		files[i].Faults = faults
	}
	st, err := pinbcast.New(
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(workload.Contents(files, 128, seed)),
		pinbcast.WithSlotBuffer(256),
	)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fan := pinbcast.NewFanout(ln, 0)
	defer fan.Close()
	fmt.Printf("fanout: %s — %d receivers, bandwidth %d blocks/unit, loss %.2f%%\n",
		fan.Addr(), nClients, st.Bandwidth(), 100*loss)

	// Each receiver subscribes over TCP and wants two files, with
	// deadlines of two latency windows (one window plus one cycle of
	// fault recovery).
	dir := st.Directory()
	receivers := make([]*pinbcast.Receiver, nClients)
	wanted := make([][]pinbcast.Request, nClients)
	for c := range receivers {
		src, err := pinbcast.DialSource(fan.Addr().String())
		if err != nil {
			return err
		}
		src.Timeout = 30 * time.Second
		// Receivers decode each slot before fetching the next, so the
		// allocation-free frame-buffer reuse path is safe here.
		src.Reuse = true
		f1 := files[c%len(files)]
		f2 := files[(c+1+c/len(files))%len(files)]
		reqs := []pinbcast.Request{{File: f1.Name, Deadline: 2 * st.Bandwidth() * f1.Latency}}
		if f2.Name != f1.Name {
			reqs = append(reqs, pinbcast.Request{File: f2.Name, Deadline: 2 * st.Bandwidth() * f2.Latency})
		}
		wanted[c] = reqs
		receivers[c], err = pinbcast.Subscribe(src,
			pinbcast.WithDirectory(dir),
			pinbcast.WithRequests(reqs...),
			pinbcast.WithReceiverFaults(pinbcast.BernoulliFaults(loss, seed+int64(c))),
		)
		if err != nil {
			return err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for fan.ClientCount() < nClients {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d receivers subscribed", fan.ClientCount(), nClients)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.Broadcast(ctx, fan)

	results := make([][]pinbcast.Result, nClients)
	metrics := make([]pinbcast.ReceiverMetrics, nClients)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for c, r := range receivers {
		wg.Add(1)
		go func(c int, r *pinbcast.Receiver) {
			defer wg.Done()
			results[c], errs[c] = r.Run(context.Background())
			metrics[c] = r.Metrics()
			// Stay tuned until the broadcast winds down so the fan-out
			// never drops a finished-but-healthy subscriber while others
			// are still retrieving — Evicted then counts real laggards.
			go func() { //pinlint:allow goroleak — bounded by Step returning the station's shutdown error when the broadcast ends
				defer r.Close()
				for {
					if _, err := r.Step(); err != nil {
						return
					}
				}
			}()
		}(c, r)
	}
	wg.Wait()
	cancel()

	fmt.Printf("%-8s %-24s %10s %12s %10s\n", "client", "files", "met", "mean lat.", "slots")
	totalMet, totalReqs := 0, 0
	for c := range receivers {
		if errs[c] != nil {
			return fmt.Errorf("client %d: %w", c, errs[c])
		}
		met, lat, n := 0, 0, 0
		names := ""
		for _, res := range results[c] {
			if names != "" {
				names += ","
			}
			names += res.File
			if res.Completed {
				lat += res.Latency
				n++
			}
			if res.DeadlineMet {
				met++
			}
		}
		totalMet += met
		totalReqs += len(results[c])
		mean := 0.0
		if n > 0 {
			mean = float64(lat) / float64(n)
		}
		fmt.Printf("%-8d %-24s %6d/%-3d %12.1f %10d\n",
			c, names, met, len(results[c]), mean, metrics[c].Slots)
	}
	fmt.Printf("per-client deadline-met ratio: %.2f%% (%d/%d requests); fan-out evictions: %d\n",
		100*float64(totalMet)/float64(totalReqs), totalMet, totalReqs, fan.Evicted())
	return nil
}

// clusterParams bundles the -cluster mode configuration.
type clusterParams struct {
	files, clients     int
	loss               float64
	burst              bool
	faults             int
	seed               int64
	channels, replicas int
	shard              string
	kill               int // -1 = no kill injection
	layout             pinbcast.Layout
}

// runCluster runs the sharded multi-channel pipeline on the loopback
// interface: a Cluster of K Stations, each broadcasting through its own
// TCP fan-out, serving -clients MultiTuners that retrieve from the
// cheapest live channel. With -kill it fails one channel mid-broadcast
// and reports detection, hops, re-admissions and contract outcomes.
func runCluster(p clusterParams) error {
	if p.replicas > p.channels {
		p.replicas = p.channels // the unset-flag default on a small K
	}
	files := workload.Random(p.files, 6, 10, 80, 0, p.seed)
	for i := range files {
		files[i].Faults = p.faults
	}
	// Provision every channel at the whole catalog's Equation-2
	// bandwidth: the headroom failover re-admission draws on.
	bw := pinbcast.SufficientBandwidth(files)
	stOpts := []pinbcast.Option{
		pinbcast.WithSlotBuffer(256),
		pinbcast.WithSlotInterval(50 * time.Microsecond),
	}
	if p.layout != nil {
		stOpts = append(stOpts, pinbcast.WithLayout(p.layout))
	}
	c, err := pinbcast.NewCluster(
		pinbcast.WithChannels(p.channels),
		pinbcast.WithReplicas(p.replicas),
		pinbcast.WithShardName(p.shard),
		pinbcast.WithClusterBandwidth(bw),
		pinbcast.WithClusterFiles(files...),
		pinbcast.WithClusterContents(workload.Contents(files, 128, p.seed)),
		pinbcast.WithStationOptions(stOpts...),
	)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %d channels × bandwidth %d, %d-way replication (%s shard)\n",
		c.Channels(), bw, c.Replicas(), c.ShardPolicy())
	for i := 0; i < c.Channels(); i++ {
		names := make([]string, 0, len(c.Station(i).Files()))
		for _, f := range c.Station(i).Files() {
			names = append(names, f.Name)
		}
		fmt.Printf("  channel %d: %s\n", i, strings.Join(names, " "))
	}

	fans := make([]pinbcast.Sink, c.Channels())
	addrs := make([]string, c.Channels())
	for i := range fans {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		fan := pinbcast.NewFanout(ln, 0)
		defer fan.Close()
		fans[i] = fan
		addrs[i] = fan.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Broadcast(ctx, fans...)

	plan := c.FetchPlan()
	dir := c.Directory()
	tuners := make([]*pinbcast.MultiTuner, p.clients)
	wanted := make([][]string, p.clients)
	for t := range tuners {
		srcs := make([]pinbcast.Source, c.Channels())
		for i := range srcs {
			src, err := pinbcast.DialSource(addrs[i])
			if err != nil {
				return err
			}
			src.Timeout = 100 * time.Millisecond
			src.Reuse = true
			srcs[i] = src
		}
		// Independent per-channel fault processes, each with its own
		// generator (channels are driven concurrently, and stateful
		// models must not share one), seeded from one reproducible
		// per-tuner parent stream.
		parent := rand.New(rand.NewSource(p.seed + int64(t)))
		models := make([]pinbcast.FaultModel, c.Channels())
		for i := range models {
			rng := rand.New(rand.NewSource(parent.Int63()))
			if p.burst {
				models[i] = pinbcast.BurstFaultsFrom(p.loss/2, 0.2, 0.9, rng)
			} else {
				models[i] = pinbcast.BernoulliFaultsFrom(p.loss, rng)
			}
		}
		mt, err := pinbcast.NewMultiTuner(srcs,
			pinbcast.WithTunerDirectory(dir),
			pinbcast.WithTunerHomes(plan),
			pinbcast.WithTunerFaults(models...),
		)
		if err != nil {
			return err
		}
		defer mt.Close()
		tuners[t] = mt
		f1 := files[t%len(files)]
		f2 := files[(t+1+t/len(files))%len(files)]
		wanted[t] = []string{f1.Name}
		if f2.Name != f1.Name {
			wanted[t] = append(wanted[t], f2.Name)
		}
	}

	// round requests every client's files through the (possibly stale)
	// fetch plan, runs all tuners to completion and prints the
	// per-client table. Requests planned onto a dead channel make the
	// tuners detect the silence, hop, and scan the survivors.
	round := func(label string) error {
		prior := make([]int, p.clients)
		for t, mt := range tuners {
			prior[t] = len(mt.Results())
			for _, name := range wanted[t] {
				var f pinbcast.FileSpec
				for _, spec := range files {
					if spec.Name == name {
						f = spec
					}
				}
				if err := mt.RequestVia(name, 4*bw*f.Latency, plan[name]); err != nil {
					return err
				}
			}
		}
		results := make([][]pinbcast.ClusterResult, p.clients)
		errs := make([]error, p.clients)
		var wg sync.WaitGroup
		for t, mt := range tuners {
			wg.Add(1)
			go func(t int, mt *pinbcast.MultiTuner) {
				defer wg.Done()
				runCtx, runCancel := context.WithTimeout(ctx, 60*time.Second)
				defer runCancel()
				all, err := mt.Run(runCtx)
				results[t], errs[t] = all[prior[t]:], err
			}(t, mt)
		}
		wg.Wait()

		fmt.Printf("%s:\n%-8s %-24s %10s %12s %6s %9s\n",
			label, "client", "files", "met", "mean lat.", "hops", "injected")
		totalMet, totalReqs := 0, 0
		for t := range tuners {
			if errs[t] != nil {
				return fmt.Errorf("client %d: %w", t, errs[t])
			}
			met, lat, n := 0, 0, 0
			for _, res := range results[t] {
				if res.Completed {
					lat += res.Latency
					n++
				}
				if res.DeadlineMet {
					met++
				}
			}
			totalMet += met
			totalReqs += len(results[t])
			mean := 0.0
			if n > 0 {
				mean = float64(lat) / float64(n)
			}
			m := tuners[t].Metrics()
			fmt.Printf("%-8d %-24s %6d/%-3d %12.1f %6d %9d\n",
				t, strings.Join(wanted[t], ","), met, len(results[t]), mean, m.Hops, m.Injected)
		}
		fmt.Printf("%s deadline-met ratio: %.2f%% (%d/%d requests)\n",
			label, 100*float64(totalMet)/float64(totalReqs), totalMet, totalReqs)
		return nil
	}

	if err := round("round 1 (all channels live)"); err != nil {
		return err
	}
	if p.kill >= 0 {
		rep, err := c.FailChannel(p.kill)
		if err != nil {
			return fmt.Errorf("kill injection: %w", err)
		}
		fmt.Printf("killed channel %d: %d re-admitted, %d lost, contracts kept %d / revoked %d\n",
			rep.Channel, len(rep.Readmitted), len(rep.Lost), len(rep.Kept), len(rep.Revoked))
		names := make([]string, 0, len(rep.Readmitted))
		for name := range rep.Readmitted {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  re-admitted %s -> channel %d\n", name, rep.Readmitted[name])
		}
		for _, name := range rep.Lost {
			fmt.Printf("  lost %s\n", name)
		}
		// Round 2 reuses the pre-kill fetch plan on purpose: that is the
		// stale view a deployed tuner holds at the moment of failure.
		if err := round("round 2 (after kill, stale fetch plan)"); err != nil {
			return err
		}
	}
	cancel()
	return nil
}

// runStream brings up a live Station for the workload and prints the
// first n slots of its broadcast stream.
func runStream(nFiles, faults int, seed int64, n int) error {
	files := workload.Random(nFiles, 6, 10, 80, 0, seed)
	for i := range files {
		files[i].Faults = faults
	}
	st, err := pinbcast.New(
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(workload.Contents(files, 128, seed)),
	)
	if err != nil {
		return err
	}
	prog := st.Program()
	fmt.Printf("station: bandwidth %d blocks/unit, period %d, data cycle %d\n",
		st.Bandwidth(), prog.Period, prog.DataCycle())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		return err
	}
	for slot := range slots {
		if slot.Idle() {
			fmt.Printf("slot %4d gen %d  ⊔\n", slot.T, slot.Generation)
		} else {
			fmt.Printf("slot %4d gen %d  %s[%d]  %d bytes\n",
				slot.T, slot.Generation, slot.File, slot.Seq+1, len(slot.Payload))
		}
		if slot.T+1 >= n {
			break
		}
	}
	return nil
}
