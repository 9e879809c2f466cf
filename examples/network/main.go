// Network: the full public pipeline on the loopback interface — a
// Station broadcasts its fault-tolerant real-time program through a
// TCP Fanout to two concurrently subscribed Receivers, each of which
// reconstructs its file from the framed self-identifying block stream
// while suffering independent reception faults.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"pinbcast"
)

func main() {
	contents := map[string][]byte{
		"alerts": []byte("storm cell moving northeast, 40 kt"),
		"charts": bytes.Repeat([]byte("chart-tile "), 24),
	}
	station, err := pinbcast.New(
		pinbcast.WithFile(pinbcast.FileSpec{Name: "alerts", Blocks: 2, Latency: 6, Faults: 1}, contents["alerts"]),
		pinbcast.WithFile(pinbcast.FileSpec{Name: "charts", Blocks: 6, Latency: 30}, contents["charts"]),
	)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fan := pinbcast.NewFanout(ln, 0)
	defer fan.Close()
	prog := station.Program()
	fmt.Printf("broadcasting on %s (period %d slots, bandwidth %d blocks/unit)\n",
		fan.Addr(), prog.Period, station.Bandwidth())

	// Two receivers tune in over TCP. The wire carries only the paper's
	// self-identifying blocks, so each receiver gets the directory out
	// of band.
	done := make(chan string, 2)
	for i, want := range []string{"alerts", "charts"} {
		go func(id int, file string) {
			src, err := pinbcast.DialSource(fan.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			src.Timeout = 5 * time.Second
			rcv, err := pinbcast.Subscribe(src,
				pinbcast.WithDirectory(station.Directory()),
				pinbcast.WithRequest(file, 0),
				pinbcast.WithReceiverFaults(pinbcast.BernoulliFaults(0.05, int64(id+1))),
			)
			if err != nil {
				log.Fatal(err)
			}
			defer rcv.Close()
			// The receiver hands its results over and keeps none; Recycle
			// gives the buffer back once the bytes have been checked.
			results, err := rcv.RunInto(context.Background(), nil)
			if err != nil {
				log.Fatalf("receiver %d: %v", id, err)
			}
			r := results[0]
			if !r.Completed || !bytes.Equal(r.Data, contents[file]) {
				log.Fatalf("receiver %d: %q corrupted in transit", id, file)
			}
			m := rcv.Metrics()
			done <- fmt.Sprintf("receiver %d got %q intact after %d slots (%d blocks seen, %d corrupted)",
				id, file, r.Latency, m.Blocks, m.Corrupted)
			rcv.Recycle(r)
		}(i, want)
	}

	// Wait for both subscriptions, then put the station on the air.
	for fan.ClientCount() < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := station.Broadcast(ctx, fan); err != nil {
			log.Print(err)
		}
	}()
	for i := 0; i < 2; i++ {
		fmt.Println(<-done)
	}
}
