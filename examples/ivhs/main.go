// IVHS: the paper's Intelligent Vehicle Highway System scenario (§1).
// A highway backbone broadcasts per-segment traffic and incident files
// plus a shared route map to thousands of vehicles over a satellite
// downlink; vehicles have no secondary storage and fetch data as it
// goes by.
//
// This example is the catalog → layout → negotiate → guarantee
// pipeline end to end, on the public API alone: it sizes the downlink
// with Equation 2, weighs the tiered Broadcast-Disk layout against the
// pinwheel layout on the same catalog, brings up a live Station,
// negotiates vehicle transaction contracts (accepting the feasible,
// rejecting the unmeetable without disturbing the schedule), admits a
// new segment with its own service contract, and finally simulates a
// fleet joining mid-broadcast under bursty losses.
package main

import (
	"errors"
	"fmt"
	"log"
	"sort"

	"pinbcast"
)

func main() {
	const segments = 6
	files := pinbcast.IVHSCatalog(segments, 7)

	fmt.Printf("IVHS catalog: %d files over %d highway segments\n", len(files), segments)
	fmt.Printf("necessary bandwidth:  %.3f blocks/unit (unit = 100 ms)\n",
		pinbcast.NecessaryBandwidth(files))
	bw := pinbcast.SufficientBandwidth(files)
	fmt.Printf("Equation-2 bandwidth: %d blocks/unit = %d blocks/s\n", bw, bw*10)

	// Layout choice. The tiered layout spins hot files fast and wins on
	// mean latency; the pinwheel layout is the one that can promise a
	// worst case per file — the paper's argument, on this catalog.
	tiered, _ := pinbcast.LookupLayout(pinbcast.LayoutTiered)
	tieredProg, err := pinbcast.Build(pinbcast.BuildConfig{Files: files, Layout: tiered})
	if err != nil {
		log.Fatal(err)
	}
	pinProg, err := pinbcast.Build(pinbcast.BuildConfig{Files: files, Bandwidth: bw})
	if err != nil {
		log.Fatal(err)
	}
	// The tiered layout reorders the file table into frequency tiers, so
	// resolve each catalog entry by name before profiling it.
	fmt.Printf("\n%-14s %8s %14s %16s\n", "file", "window", "tiered worst", "pinwheel worst")
	for _, f := range files[:3] {
		_, tw := tieredProg.LatencyProfile(tieredProg.FileIndex(f.Name))
		_, pw := pinProg.LatencyProfile(pinProg.FileIndex(f.Name))
		fmt.Printf("%-14s %8d %14d %16d\n", f.Name, bw*f.Latency, tw, pw)
	}
	uniform := make([]float64, len(files))
	for i := range uniform {
		uniform[i] = 1.0 / float64(len(files))
	}
	fmt.Printf("uniform weighted mean: tiered %.1f vs pinwheel %.1f slots\n",
		tieredProg.WeightedMeanLatency(uniform),
		pinProg.WeightedMeanLatency(uniform))

	// A live station on the pinwheel layout: only it can back contracts
	// with construction-certified windows.
	contents := pinbcast.CatalogContents(files, 256, 11)
	station, err := pinbcast.New(
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(contents),
		pinbcast.WithBandwidth(bw),
	)
	if err != nil {
		log.Fatal(err)
	}

	// A vehicle negotiates its trip-planner transaction: the local
	// traffic file plus the shared route map, within the map's 60 s
	// freshness budget.
	trip := pinbcast.Txn{
		Name:     "trip-planner",
		Reads:    []string{"traffic-00", "route-map"},
		Deadline: bw * 600,
	}
	contract, err := station.AdmitTxn(trip)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontract %q: worst latency %d slots (%.1f s), staleness ≤ %d slots, generation %d\n",
		contract.Name, contract.WorstLatencySlots,
		float64(contract.WorstLatencySlots)/float64(bw)/10,
		contract.StalenessSlots, contract.EffectiveAt)
	if lat, err := pinbcast.TxnLatency(station.Program(), trip, 0); err == nil {
		fmt.Printf("measured from slot 0: %d slots — within contract: %v\n",
			lat, lat <= contract.WorstLatencySlots)
	}

	// An overambitious dashboard wants the whole highway in a second:
	// rejected, and the broadcast is untouched.
	dash := pinbcast.Txn{Name: "dashboard", Reads: []string{"route-map"}, Deadline: 10}
	if _, err := station.AdmitTxn(dash); errors.Is(err, pinbcast.ErrAdmission) {
		fmt.Printf("contract %q REJECTED as designed: %v\n", dash.Name, err)
	} else {
		log.Fatal("dashboard transaction unexpectedly admitted")
	}
	fmt.Printf("contracts in force after rejection: %d (schedule generation %d)\n",
		len(station.Contracts()), station.Generation())

	// A new highway segment comes online: Negotiate admits its traffic
	// file and returns the file's own service contract.
	newSeg := pinbcast.FileSpec{Name: "traffic-06", Blocks: 2, Latency: 20, Faults: 1}
	segData := []byte("segment 6: traffic clear, no incidents")
	contents[newSeg.Name] = segData
	segContract, err := station.Negotiate(newSeg, segData)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("negotiated %q: worst latency %d slots, effective generation %d\n",
		segContract.Name, segContract.WorstLatencySlots, segContract.EffectiveAt)

	// A fleet of vehicles: each joins mid-broadcast and needs the
	// traffic file of its current segment plus the route map.
	program := station.Program()
	var fleet []pinbcast.ClientSpec
	for v := 0; v < 30; v++ {
		seg := v % segments
		fleet = append(fleet, pinbcast.ClientSpec{
			Start: (v * 131) % (3 * program.Period),
			Requests: []pinbcast.Request{
				{File: fmt.Sprintf("traffic-%02d", seg), Deadline: bw * files[2*seg].Latency},
				{File: "route-map", Deadline: bw * 600},
			},
		})
	}
	report, err := pinbcast.Simulate(pinbcast.SimConfig{
		Program:  program,
		Contents: contents,
		Fault:    pinbcast.BurstFaults(0.01, 0.2, 0.9, 3), // bursty satellite fades
		Clients:  fleet,
		Horizon:  16 * program.DataCycle(),
	})
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, 0, len(report.PerFile))
	for n := range report.PerFile {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n%-14s %9s %10s %8s %10s\n", "file", "requests", "completed", "missed", "mean lat.")
	for _, n := range names {
		st := report.PerFile[n]
		fmt.Printf("%-14s %9d %10d %8d %10.1f\n",
			n, st.Requests, st.Completed, st.DeadlineMissed, st.MeanLatency)
	}
	fmt.Printf("\nchannel %s: %d/%d blocks corrupted; overall miss ratio %.1f%%\n",
		report.FaultModel, report.BlocksCorrupted, report.BlocksSent, 100*report.MissRatio())
}
