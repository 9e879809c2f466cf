// Cluster: sharded multi-channel broadcast with cross-channel
// redundancy and failover. A metropolitan IVHS deployment outgrows one
// broadcast channel, so the catalog is sharded across three channels
// (coordinator → K Stations), the hottest files are replicated on two
// channels (quorum-style: any K−R+1 live channels still carry them),
// and vehicles run a MultiTuner that subscribes to every channel,
// retrieves each file from the cheapest live carrier, and hops
// channels when one dies — the regime of Goemans–Lynch–Saias'
// no-repair fault tolerance, layered over the paper's per-channel IDA
// fault model.
//
// The example plans the shard, negotiates cluster-wide contracts
// (composed from per-channel contracts, bounded by the best replica),
// kills a channel mid-broadcast, fails it over (un-replicated files
// re-admitted onto survivors at their next data-cycle boundaries,
// contracts re-verified or revoked with ErrDegraded), and shows the
// tuner retrieving through the failure.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"

	"pinbcast"
)

func main() {
	files := pinbcast.IVHSCatalog(4, 7)
	contents := pinbcast.CatalogContents(files, 96, 7)
	fmt.Printf("catalog: %d files; hottest (replication candidates): %v\n",
		len(files), pinbcast.HottestFiles(files, 3))

	// Plan the deployment: three channels, hottest three files carried
	// twice, per-channel demand leveled by the balanced shard. Every
	// channel is provisioned at the whole catalog's Equation-2
	// bandwidth — the headroom failover re-admission draws on.
	bw := pinbcast.SufficientBandwidth(files)
	c, err := pinbcast.NewCluster(
		pinbcast.WithChannels(3),
		pinbcast.WithReplicas(2),
		pinbcast.WithReplicateHottest(3),
		pinbcast.WithShardName(pinbcast.ShardBalanced),
		pinbcast.WithClusterBandwidth(bw),
		pinbcast.WithClusterFiles(files...),
		pinbcast.WithClusterContents(contents),
	)
	if err != nil {
		log.Fatal(err)
	}
	assignment := c.Assignment()
	names := make([]string, 0, len(assignment))
	for name := range assignment {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\nshard plan (%s, %d channels × bandwidth %d):\n", c.ShardPolicy(), c.Channels(), bw)
	for _, name := range names {
		fmt.Printf("  %-12s channels %v\n", name, assignment[name])
	}

	// Cluster-wide QoS: a vehicle's trip transaction reads one hot and
	// one cold file; the cluster composes per-channel contracts and
	// promises both a nominal (best-replica) and a degraded bound.
	// The binding read is the slow route map (latency 600 units): its
	// window B·600 dominates the composed bound.
	trip, err := c.Negotiate(pinbcast.Txn{
		Name:     "trip",
		Reads:    []string{"traffic-00", "route-map"},
		Deadline: 650 * bw,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontract %q: ≤ %d slots nominal, ≤ %d slots with %d channel down\n",
		trip.Name, trip.WorstLatencySlots, trip.DegradedLatencySlots, c.Replicas()-1)

	// Serve all channels in-process and tune in.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := c.Serve(ctx)
	if err != nil {
		log.Fatal(err)
	}
	srcs := make([]pinbcast.Source, len(slots))
	for i, ch := range slots {
		srcs[i] = pinbcast.SlotSource(ch)
	}
	// The vehicle's radio loses 2 % of what each channel sends, each on a
	// fault process of its own, gives a channel up after 8 slots missing
	// in a row, and wants the traffic bulletin from the moment it is on.
	// Its fetch plan predates traffic-03: that one it will scan for.
	stalePlan := c.FetchPlan()
	delete(stalePlan, "traffic-03")
	loss := make([]pinbcast.FaultModel, len(srcs))
	for i := range loss {
		loss[i] = pinbcast.BernoulliFaults(0.02, int64(7+i))
	}
	mt, err := pinbcast.NewMultiTuner(srcs,
		pinbcast.WithTunerDirectory(c.Directory()),
		pinbcast.WithTunerHomes(stalePlan),
		pinbcast.WithTunerFaults(loss...),
		pinbcast.WithMissThreshold(8),
		pinbcast.WithTunerRequest("traffic-00", 0),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer mt.Close()

	fetch := func(label string, reqs ...string) {
		for _, name := range reqs {
			if err := mt.Request(name, 0); err != nil { // follows the plan of WithTunerHomes
				log.Fatal(err)
			}
		}
		results, err := mt.RunInto(ctx, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", label)
		for _, res := range results {
			fmt.Printf("  %-12s channel %d, %3d slots\n", res.File, res.Channel, res.Latency)
		}
	}
	fetch("normal service", "route-map")

	// A channel dies mid-broadcast. The coordinator fails it over:
	// files it alone carried are re-admitted onto survivors at their
	// next data-cycle boundaries; every contract is re-verified.
	victim := stalePlan["route-map"][0]
	rep, err := c.FailChannel(victim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchannel %d killed: %d files re-admitted, %d lost, contracts kept %v revoked %v\n",
		victim, len(rep.Readmitted), len(rep.Lost), rep.Kept, rep.Revoked)
	moved := make([]string, 0, len(rep.Readmitted))
	for name := range rep.Readmitted {
		moved = append(moved, name)
	}
	sort.Strings(moved)
	for _, name := range moved {
		fmt.Printf("  %-12s -> channel %d\n", name, rep.Readmitted[name])
	}
	if _, err := c.Contract("trip"); errors.Is(err, pinbcast.ErrDegraded) {
		fmt.Println("trip contract revoked: cluster degraded")
	} else if err == nil {
		fmt.Println("trip contract re-verified: still in force")
	}

	// The tuner still holds the stale fetch plan: requests planned on
	// the dead channel hop (its stream has closed), and files that
	// moved are found on their new homes by scanning the survivors.
	fetch("service through the failure (stale plan)", "traffic-00", "route-map")

	// No plan for traffic-03: both its homes collect it. Each sends its own
	// range of one code, so what they hear pools into one reconstruction —
	// where the channels tick together, as a paced daemon's do; these run
	// as fast as each is read, and one usually has the file before the
	// other has a block.
	fetch("no plan (scan)", "traffic-03")

	m := mt.Metrics()
	fmt.Printf("\ntuner: %d hops, %d of %d retrievals pooled over channels, dead channels %v, slots per channel %v\n",
		m.Hops, m.Pooled, m.Completed, m.DeadChannels, m.SlotsPerChannel)

	// The trip is over: its contract and the per-channel registrations
	// behind it are withdrawn.
	if err := c.Release("trip"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trip over: contract released, %d in force\n", len(c.Contracts()))
}
