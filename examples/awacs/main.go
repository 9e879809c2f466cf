// AWACS: the paper's running real-time database example (§1, §2.2). An
// Airborne Warning and Control System broadcasts positional data items
// whose temporal-consistency constraints derive from platform
// velocities: an aircraft at 900 km/h with 100 m required accuracy must
// be refreshed every 400 ms, a 60 km/h tank every 6 s. Operation modes
// ("combat", "landing") scale each item's AIDA redundancy.
//
// This example runs the mode-specific catalogs through the public QoS
// API: each mode's database derives a broadcast program; a live combat
// station then negotiates transaction contracts (an intercept
// controller's read set, guaranteed against the certified windows),
// admits a new sensor feed with its own contract, and rejects a flood
// that would endanger the guarantees already issued — leaving the
// schedule and every standing contract untouched.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"pinbcast"
)

func main() {
	db := pinbcast.AWACSCatalog()
	fmt.Println("AWACS real-time database (unit = 100 ms):")
	for _, it := range db.Items {
		fmt.Printf("  %-16s velocity %5.1f m/s, accuracy %5.1f m → constraint %v\n",
			it.Name, it.Velocity, it.Accuracy, it.TemporalConstraint())
	}
	fmt.Println()

	// Mode changes re-derive the broadcast program: combat boosts
	// redundancy on critical items (AIDA's bandwidth-allocation step).
	for _, mode := range []pinbcast.Mode{"combat", "landing"} {
		files, err := db.FileSpecs(mode)
		if err != nil {
			log.Fatal(err)
		}
		program, err := pinbcast.Build(pinbcast.BuildConfig{Files: files})
		if err != nil {
			log.Fatal(err)
		}
		bw := program.Bandwidth
		fmt.Printf("mode %-8s bandwidth %d blocks/unit (%d blocks/s), period %d slots\n",
			mode, bw, bw*int(time.Second/db.Unit), program.Period)
		for i, f := range files {
			fmt.Printf("    %-16s m=%d r=%d window=%4d slots  δ=%d\n",
				f.Name, f.Blocks, f.Faults, bw*f.Latency, program.MaxGap(i))
		}
	}
	fmt.Println()

	// A live combat-mode station negotiating QoS online.
	combat, err := db.FileSpecs("combat")
	if err != nil {
		log.Fatal(err)
	}
	station, err := pinbcast.New(
		pinbcast.WithDatabase(db, "combat"),
		pinbcast.WithContents(pinbcast.CatalogContents(combat, 64, 1)),
	)
	if err != nil {
		log.Fatal(err)
	}
	bw := station.Bandwidth()

	// The intercept controller's transaction reads the fast movers; its
	// deadline is the helicopter's temporal constraint (the looser of
	// the two windows) — guaranteed analytically at admission time.
	intercept := pinbcast.Txn{
		Name:     "intercept-controller",
		Reads:    []string{"aircraft-pos", "helicopter-pos"},
		Deadline: bw * 15, // 1.5 s in slots
	}
	contract, err := station.AdmitTxn(intercept)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contract %q: worst latency %d slots, staleness ≤ %d slots, generation %d\n",
		contract.Name, contract.WorstLatencySlots, contract.StalenessSlots, contract.EffectiveAt)
	if worst, err := pinbcast.TxnWorstLatency(station.Program(), intercept); err == nil {
		fmt.Printf("measured worst case over every start slot, each read under its faults: %d — within contract: %v\n",
			worst, worst <= contract.WorstLatencySlots)
	}

	// A new sensor feed joins through negotiation and gets a contract of
	// its own; the rebuilt program must keep the intercept contract.
	feed := pinbcast.FileSpec{Name: "radar-sweep", Blocks: 2, Latency: 30, Faults: 1}
	feedContract, err := station.Negotiate(feed, []byte("radar sweep frame"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("negotiated %q: worst latency %d slots, effective generation %d (disk carries %d items)\n",
		feedContract.Name, feedContract.WorstLatencySlots, feedContract.EffectiveAt,
		len(station.Files()))

	// A raw video flood cannot be admitted at this bandwidth: the
	// density test protects every standing guarantee, and rejection
	// changes nothing.
	before := len(station.Contracts())
	flood := pinbcast.FileSpec{Name: "video-feed", Blocks: 200, Latency: 10}
	if _, err := station.Negotiate(flood, []byte("raw video")); errors.Is(err, pinbcast.ErrAdmission) {
		fmt.Printf("negotiation of %s rejected as designed: density bound protects deadlines\n",
			flood.Name)
	} else if err != nil {
		log.Fatal(err)
	} else {
		log.Fatal("flood item unexpectedly admitted")
	}
	fmt.Printf("contracts still in force: %d of %d\n", len(station.Contracts()), before)
	for _, c := range station.Contracts() {
		fmt.Printf("    %-22s worst %4d slots, staleness ≤ %4d slots\n",
			c.Name, c.WorstLatencySlots, c.StalenessSlots)
	}
}
