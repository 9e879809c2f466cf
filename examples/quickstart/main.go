// Quickstart: run a broadcast disk as a live Station service — build a
// fault-tolerant real-time program for two files, stream it paced with
// Serve(ctx), reconstruct a file from the slot stream, let a receiver
// that knows the schedule doze through the rest, and admit a third file
// online at a data-cycle boundary.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"pinbcast"
)

func main() {
	// Two files: a hot traffic bulletin that must be retrievable within
	// 8 time units even if one of its blocks is destroyed, and a colder
	// map that can take 40.
	traffic := []byte("congestion northbound at exit 9; reroute via route 128")
	tiles := bytes.Repeat([]byte("tile "), 64)
	station, err := pinbcast.New(
		pinbcast.WithFile(pinbcast.FileSpec{Name: "traffic", Blocks: 4, Latency: 8, Faults: 1}, traffic),
		pinbcast.WithFile(pinbcast.FileSpec{Name: "map", Blocks: 8, Latency: 40}, tiles),
		pinbcast.WithSlotInterval(100*time.Microsecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	program := station.Program()
	fmt.Printf("bandwidth:      %d blocks/unit (Equation 2)\n", station.Bandwidth())
	fmt.Printf("program period: %d slots, data cycle %d slots\n",
		program.Period, program.DataCycle())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := station.Serve(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Reconstruct "traffic" straight from the slot stream: any 4
	// distinct blocks suffice (Rabin's IDA).
	blocks := map[int]*pinbcast.Block{}
	for slot := range slots {
		if slot.File == "traffic" {
			blocks[slot.Seq] = slot.Block
			if len(blocks) == 4 {
				got := make([]*pinbcast.Block, 0, len(blocks))
				for _, b := range blocks {
					got = append(got, b)
				}
				data, err := pinbcast.Reconstruct(got)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("reconstructed %q after %d slots, intact: %v\n",
					"traffic", slot.T+1, bytes.Equal(data, traffic))
				break
			}
		}
	}

	// The station is paced, so what it sends is its Emission: the program
	// with the idle slots filled by further blocks of its files. A
	// receiver that knows it sleeps through every slot that cannot serve
	// its request and loses nothing by it.
	rcv, err := pinbcast.Subscribe(pinbcast.SlotSource(slots),
		pinbcast.WithSchedule(station.Emission()), pinbcast.WithRequest("map", 0))
	if err != nil {
		log.Fatal(err)
	}
	// RunInto hands the results over: the receiver keeps none of them,
	// and Recycle gives the buffer back for its next retrieval.
	results, err := rcv.RunInto(ctx, nil)
	if err != nil {
		log.Fatal(err)
	}
	m := rcv.Metrics()
	fmt.Printf("a dozing receiver got %q in %d slots, listening to %d of %d\n",
		"map", results[0].Latency, m.Listened, m.Slots)
	rcv.Recycle(results[0])

	// Admit a third file online: admission control verifies the density
	// guarantee, and the new program takes over at the next data-cycle
	// boundary of the running broadcast.
	err = station.Admit(pinbcast.FileSpec{Name: "alerts", Blocks: 2, Latency: 20}, []byte("storm cell NE"))
	if err != nil {
		log.Fatal(err)
	}
	for slot := range slots {
		if slot.Generation == 2 {
			fmt.Printf("admitted %q online: generation 2 live at slot %d (%d files)\n",
				"alerts", slot.T, len(station.Files()))
			break
		}
	}
}
