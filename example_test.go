package pinbcast_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"pinbcast"
)

// ExampleStation runs a broadcast disk as a live service: two files are
// scheduled into a fault-tolerant program, the station streams blocks
// under a cancellable context, a consumer reconstructs a file from any
// m of its AIDA blocks, and a third file is admitted online at a
// data-cycle boundary.
func ExampleStation() {
	bulletin := []byte("congestion northbound at exit 9")
	tiles := bytes.Repeat([]byte("tile "), 40)
	station, err := pinbcast.New(
		pinbcast.WithFile(pinbcast.FileSpec{Name: "traffic", Blocks: 4, Latency: 8, Faults: 1}, bulletin),
		pinbcast.WithFile(pinbcast.FileSpec{Name: "map", Blocks: 8, Latency: 40}, tiles),
	)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := station.Serve(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Any 4 distinct blocks of "traffic" reconstruct it.
	blocks := map[int]*pinbcast.Block{}
	for slot := range slots {
		if slot.File != "traffic" {
			continue
		}
		blocks[slot.Seq] = slot.Block
		if len(blocks) == 4 {
			break
		}
	}
	collected := make([]*pinbcast.Block, 0, len(blocks))
	for _, b := range blocks {
		collected = append(collected, b)
	}
	data, err := pinbcast.Reconstruct(collected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructed intact: %v\n", bytes.Equal(data, bulletin))

	// Admit a third file online; the swap lands on the next data-cycle
	// boundary, where the outgoing block rotation ends.
	if err := station.Admit(pinbcast.FileSpec{Name: "alerts", Blocks: 2, Latency: 20}, []byte("storm cell NE")); err != nil {
		log.Fatal(err)
	}
	for slot := range slots {
		if slot.Generation == 2 {
			fmt.Printf("generation 2 carries %d files\n", len(station.Files()))
			break
		}
	}

	// Output:
	// reconstructed intact: true
	// generation 2 carries 3 files
}

// ExampleReceiver subscribes the client half of the pair to a served
// slot stream: the Receiver learns the directory from the stream,
// collects self-identifying AIDA blocks for its request under injected
// reception faults, reconstructs the file, and reports deadline and
// tuning metrics. The same code runs unchanged over the TCP transport
// (DialSource) or a replayed Recording.
func ExampleReceiver() {
	bulletin := []byte("congestion northbound at exit 9")
	station, err := pinbcast.New(
		pinbcast.WithFile(pinbcast.FileSpec{Name: "traffic", Blocks: 4, Latency: 8, Faults: 1}, bulletin),
		pinbcast.WithFile(pinbcast.FileSpec{Name: "map", Blocks: 8, Latency: 40}, bytes.Repeat([]byte("tile "), 40)),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := station.Serve(ctx)
	if err != nil {
		log.Fatal(err)
	}

	receiver, err := pinbcast.Subscribe(pinbcast.SlotSource(slots),
		pinbcast.WithRequest("traffic", station.Bandwidth()*8), // deadline: one latency window
		pinbcast.WithReceiverFaults(pinbcast.SlotFaults(1)),    // slot 1 is destroyed in transit
	)
	if err != nil {
		log.Fatal(err)
	}
	defer receiver.Close()
	results, err := receiver.RunInto(ctx, nil) // the receiver keeps none of them
	if err != nil {
		log.Fatal(err)
	}
	r := results[0]
	fmt.Printf("reconstructed intact: %v, within its window: %v\n",
		bytes.Equal(r.Data, bulletin), r.DeadlineMet)
	receiver.Recycle(r) // the buffer is the receiver's again

	// Output:
	// reconstructed intact: true, within its window: true
}
