// Command bdsim runs an end-to-end fault-injection simulation of a
// broadcast disk: it builds a program for a synthetic workload, streams
// it through a lossy channel to a population of clients on a virtual
// clock (pinbcast.Simulate), and reports latency and deadline
// statistics. The live pipeline is cmd/bdserved; examples/network and
// examples/cluster drive it in process.
//
// Usage:
//
//	bdsim [-files 8] [-clients 25] [-loss 0.05] [-burst] [-faults 1] [-seed 1] [-layout pinwheel] [-metrics-out FILE]
//
// -layout selects the program construction strategy (pinwheel, tiered,
// flat-spread, flat-sequential); deadlines are always judged against
// the pinwheel windows, so non-real-time layouts show their misses.
//
// -metrics-out writes a JSON snapshot of the metrics registry after
// the run: the simulated clients are Receivers and count into the
// pin_receiver_* families.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pinbcast"
	"pinbcast/internal/obs"
	"pinbcast/internal/workload"
)

func main() {
	nFiles := flag.Int("files", 8, "number of broadcast files")
	nClients := flag.Int("clients", 25, "number of clients")
	loss := flag.Float64("loss", 0.05, "block loss probability")
	burst := flag.Bool("burst", false, "use the Gilbert–Elliott burst model instead of iid")
	faults := flag.Int("faults", 1, "designed per-retrieval fault tolerance r")
	seed := flag.Int64("seed", 1, "random seed")
	layoutName := flag.String("layout", "",
		"construction layout for the simulation (default: pinwheel; registered: "+
			strings.Join(pinbcast.LayoutNames(), ", ")+")")
	metricsOut := flag.String("metrics-out", "", "write a JSON snapshot of the metrics registry to this file after the run")
	flag.Parse()

	var layout pinbcast.Layout
	if *layoutName != "" {
		l, ok := pinbcast.LookupLayout(strings.ToLower(strings.TrimSpace(*layoutName)))
		if !ok {
			fmt.Fprintf(os.Stderr, "bdsim: unknown layout %q (registered: %s)\n",
				*layoutName, strings.Join(pinbcast.LayoutNames(), ", "))
			os.Exit(2)
		}
		layout = l
	}
	err := run(*nFiles, *nClients, *loss, *burst, *faults, *seed, layout)
	if err == nil && *metricsOut != "" {
		err = writeMetricsOut(*metricsOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdsim:", err)
		os.Exit(1)
	}
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
