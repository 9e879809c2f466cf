package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"pinbcast"
	"pinbcast/internal/client"
	"pinbcast/internal/core"
	"pinbcast/internal/gf256"
	"pinbcast/internal/ida"
	"pinbcast/internal/pinwheel"
	"pinbcast/internal/server"
	"pinbcast/internal/transport"
	"pinbcast/internal/workload"
)

// Isolated layer timings: each layer driven alone, on the workload's
// own catalogue, block size and subscriber count, after the live
// systems have been torn down — a measurement that shares a process
// with unmeasured work measures nothing. Layers that need a peer (a
// socket reader, the serve goroutine) get exactly that peer and nothing
// more.

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

// timePasses calls pass until budget has passed (and at least three
// times). A pass reports how long its timed part took and how many
// units of work that was; the result is the median pass's nanoseconds
// per unit, with the units done in all.
func timePasses(budget time.Duration, pass func() (elapsed time.Duration, units int, err error)) (nsPerUnit float64, total int, err error) {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		elapsed, units, err := pass()
		if err != nil {
			return 0, 0, err
		}
		per = append(per, float64(elapsed.Nanoseconds())/float64(units))
		total += units
	}
	return median(per), total, nil
}

// timeOp is timePasses for an operation that cannot fail, called batch
// times per pass.
func timeOp(budget time.Duration, batch int, op func()) (nsPerOp float64, calls int) {
	nsPerOp, calls, _ = timePasses(budget, func() (time.Duration, int, error) {
		t0 := time.Now()
		for range batch {
			op()
		}
		return time.Since(t0), batch, nil
	})
	return nsPerOp, calls
}

// onTransport reports whether the workload's slots cross a socket.
func (s spec) onTransport() bool { return s.name == "fanout-steady" || s.name == "daemon-paced" }

// subscribers is how many connections one fan-out serves on this
// workload: both receivers on fanout-steady, one tuner source per
// channel on daemon-paced.
func (s spec) subscribers() int {
	if s.name == "daemon-paced" {
		return 1
	}
	return s.receivers
}

// budget sums the isolated busy costs along the workload's slot path,
// per emitted slot, for the process cpu_us_per_slot is measured on: the
// whole pipeline in process, the serving half in the daemon. The
// isolated write is one frame per syscall; live, the fan-out gathers
// fanout.writev_batch_mean frames into each, so the write's share of a
// slot is divided by that.
func (s spec) budget(m metricSet) float64 {
	sum := m["station.serve_ns_per_slot"].value
	if !s.onTransport() {
		return sum + m["receiver.step_ns_per_slot"].value
	}
	subs := float64(s.subscribers())
	batch := max(m["fanout.writev_batch_mean"].value, 1)
	sum += m["fanout.send_ns_per_slot"].value + subs*m["transport.write_ns_per_frame"].value/batch
	if s.name == "daemon-paced" {
		return sum // the receiving half runs in bdload, not in the child
	}
	return sum + subs*(m["transport.read_ns_per_frame"].value+m["receiver.step_ns_per_slot"].value)
}

// isolatedLayers runs every isolated timing, splitting the time budget
// evenly across them.
func isolatedLayers(m metricSet, r *run, total time.Duration) error {
	s := r.spec
	each := total / 16
	files := s.catalogue()
	if s.name == "admit-churn" {
		files = append(files, churnFile) // the control plane's work is the catalogue with the churn file in
	}
	contents := workload.Contents(files, s.blockSize, r.seed)
	bandwidth := pinbcast.SufficientBandwidth(files)
	totalBytes := 0
	for _, d := range contents {
		totalBytes += len(d)
	}

	// Control plane: schedule solve, program build, dispersal.
	sys := core.TaskSystem(files, bandwidth)
	solve, n := timeOp(each, 1, func() {
		sch, err := pinwheel.Solve(sys, nil)
		if err != nil {
			panic(err) // the live run already built this catalogue
		}
		sink = sch
	})
	m.setN("pinwheel.solve_ms", solve/1e6, n)
	var prog *core.Program
	build, n := timeOp(each, 1, func() {
		p, err := core.BuildProgramWith(files, bandwidth, nil)
		if err != nil {
			panic(err)
		}
		prog = p
	})
	m.setN("core.build_ms", max(build-solve, 0)/1e6, n)
	var srv *server.Server
	newSrv, n := timeOp(each, 1, func() {
		sv, err := server.New(prog, contents)
		if err != nil {
			panic(err)
		}
		srv = sv
	})
	m.setN("server.new_ms", newSrv/1e6, n)

	// Codec: batch dispersal grouped by (M, N) as server.New groups it,
	// reconstruction from the subsets a lossy receiver ends with, and
	// the kernel under both.
	type group struct {
		codec *ida.Codec
		datas [][]byte
	}
	groups := map[[2]int]*group{}
	for _, info := range prog.Files {
		key := [2]int{info.M, info.N}
		g := groups[key]
		if g == nil {
			codec, err := ida.Shared(info.M, info.N)
			if err != nil {
				return err
			}
			g = &group{codec: codec}
			groups[key] = g
		}
		g.datas = append(g.datas, contents[info.Name])
	}
	disperse, n := timeOp(each, 1, func() {
		for _, g := range groups {
			out, err := g.codec.DisperseBatch(g.datas, nil)
			if err != nil {
				panic(err)
			}
			sink = out
		}
	})
	m.setN("ida.disperse_MBps", float64(totalBytes)/disperse*1e3, n)

	subsets := receivedSubsets(srv, prog, s.loss, r.seed)
	var buf []byte
	reconstruct, n := timeOp(each, 1, func() {
		for _, blocks := range subsets {
			out, err := ida.ReconstructFileInto(blocks, buf)
			if err != nil {
				panic(err)
			}
			buf = out[:0]
		}
	})
	m.setN("ida.reconstruct_MBps", float64(totalBytes)/reconstruct*1e3, n)

	src, dst := make([]byte, s.blockSize), make([]byte, s.blockSize)
	rand.New(rand.NewSource(r.seed)).Read(src)
	muladd, n := timeOp(each, 256, func() { gf256.MulAddSlice(0x53, src, dst) })
	m.setN("gf256.muladd_GBps", float64(s.blockSize)/muladd, n)

	// Serve path.
	t := 0
	emit, n := timeOp(each, 1024, func() {
		sink = srv.EmitBlock(t)
		sink = srv.Emit(t)
		t++
	})
	m.setN("server.emit_ns", emit, n)
	st, err := pinbcast.New(
		pinbcast.WithFiles(files...), pinbcast.WithContents(contents), pinbcast.WithSlotBuffer(slotBuffer))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	slots, err := st.Serve(ctx)
	if err != nil {
		cancel()
		return err
	}
	serve, n := timeOp(each, 4096, func() { <-slots })
	m.setN("station.serve_ns_per_slot", serve, n)

	// One recorded stretch of the broadcast feeds the receive-side
	// timings. Over a socket only the slot number and the raw block
	// travel, so those workloads replay exactly that.
	recorded := make([]pinbcast.Slot, 0, 1<<15)
	for len(recorded) < cap(recorded) {
		slot := <-slots
		if s.onTransport() {
			slot = pinbcast.Slot{T: slot.T, Payload: slot.Payload}
		}
		recorded = append(recorded, slot)
	}
	cancel()
	for range slots {
	}
	var payloads [][]byte
	for _, slot := range recorded[:min(len(recorded), 4096)] {
		if slot.Payload != nil {
			payloads = append(payloads, slot.Payload)
		}
	}

	if s.onTransport() {
		if err := transportLayers(m, s, payloads, each); err != nil {
			return err
		}
	}
	if err := clientLayers(m, s, st.Directory(), recorded, each, r.seed); err != nil {
		return err
	}
	if s.name == "daemon-paced" {
		return tunerLayer(m, s, each)
	}
	return nil
}

// receivedSubsets picks, per file, the M blocks a receiver tuning in at
// a random point of the file's rotation ends up reconstructing from,
// when each transmission is lost with probability loss: a mix of
// systematic and redundant rows, which is what decides how much GF(256)
// work a reconstruction costs.
func receivedSubsets(srv *server.Server, prog *core.Program, loss float64, seed int64) [][]*ida.Block {
	byFile := make([]map[uint16]*ida.Block, len(prog.Files))
	for i := range byFile {
		byFile[i] = map[uint16]*ida.Block{}
	}
	for t := 0; t < prog.DataCycle(); t++ {
		if f := prog.FileAt(t); f != core.Idle {
			b := srv.EmitBlock(t)
			byFile[f][b.Seq] = b
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out [][]*ida.Block
	for i, info := range prog.Files {
		var blocks []*ida.Block
		for seq := rng.Intn(info.N); len(blocks) < info.M; seq = (seq + 1) % info.N {
			if b := byFile[i][uint16(seq)]; b != nil && rng.Float64() >= loss {
				blocks = append(blocks, b)
			}
		}
		out = append(out, blocks)
	}
	return out
}

// discardPeers accepts n connections on ln and drains each into
// nothing, returning once all are connected.
func discardPeers(ln net.Listener, n int) ([]net.Conn, error) {
	var conns []net.Conn
	for range n {
		c, err := ln.Accept()
		if err != nil {
			return conns, err
		}
		conns = append(conns, c)
		go io.Copy(io.Discard, c) // ends when the connection is closed below
	}
	return conns, nil
}

// transportLayers times Fanout.Send with the workload's subscriber
// count, a framed write, and a framed read, each against a peer that
// does nothing but keep the socket moving.
func transportLayers(m metricSet, s spec, payloads [][]byte, each time.Duration) error {
	// Fanout.Send: subscribers dial the fan-out and discard.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fan := pinbcast.NewFanout(ln, time.Hour)
	var peers []net.Conn
	for range s.subscribers() {
		c, err := net.Dial("tcp", fan.Addr().String())
		if err != nil {
			fan.Close()
			return err
		}
		peers = append(peers, c)
		go io.Copy(io.Discard, c)
	}
	for fan.ClientCount() < s.subscribers() {
		time.Sleep(100 * time.Microsecond)
	}
	i := 0
	send, n := timeOp(each, 4096, func() {
		if err := fan.Send(pinbcast.Slot{T: i, Payload: payloads[i%len(payloads)]}); err != nil {
			panic(err)
		}
		i++
	})
	m.setN("fanout.send_ns_per_slot", send, n)
	fan.Close()
	for _, c := range peers {
		c.Close()
	}

	// Framed write: AppendFrame into a reused buffer, one Write.
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer w.Close()
	accepted, err := discardPeers(ln, 1)
	if err != nil {
		return err
	}
	defer accepted[0].Close()
	var frame []byte
	i = 0
	write, n := timeOp(each, 1024, func() {
		var err error
		frame, err = transport.AppendFrame(frame[:0], i, payloads[i%len(payloads)])
		if err == nil {
			_, err = w.Write(frame)
		}
		if err != nil {
			panic(err)
		}
		i++
	})
	m.setN("transport.write_ns_per_frame", write, n)

	// Framed read: the stream is encoded once up front and replayed in
	// large writes by a peer that does nothing else, so the reader —
	// the public TCPSource in reuse mode, which is NextReuse — is never
	// the one waiting.
	var stream []byte
	for t, p := range payloads {
		if stream, err = transport.AppendFrame(stream, t, p); err != nil {
			return err
		}
	}
	feedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer feedLn.Close()
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		c, err := feedLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			if _, err := c.Write(stream); err != nil {
				return // the reader hung up: the timing is over
			}
		}
	}()
	tcp, err := pinbcast.DialSource(feedLn.Addr().String())
	if err != nil {
		return err
	}
	tcp.Reuse = true
	read, n := timeOp(each, 4096, func() {
		if _, err := tcp.Next(); err != nil {
			panic(err)
		}
	})
	m.setN("transport.read_ns_per_frame", read, n)
	tcp.Close()
	<-fed
	return nil
}

// clientLayers times the protocol client on blocks it ignores and on
// blocks it stores, and the Receiver's whole per-slot step over the
// recorded broadcast with the workload's fault rate.
func clientLayers(m metricSet, s spec, directory map[uint32]string, recorded []pinbcast.Slot, each time.Duration, seed int64) error {
	// Split the recorded payloads by file: the largest file is the one
	// requested, everything else is traffic to ignore.
	files := s.catalogue()
	want := files[0]
	for _, f := range files {
		if f.Blocks > want.Blocks {
			want = f
		}
	}
	wantID := pinbcast.FileID(want.Name)
	var others [][]byte
	wanted := map[uint16][]byte{}
	var scratch ida.Block
	for _, slot := range recorded {
		if slot.Payload == nil {
			continue
		}
		if err := ida.UnmarshalInto(slot.Payload, &scratch); err != nil {
			return err
		}
		if scratch.FileID == wantID {
			wanted[scratch.Seq] = slot.Payload
		} else if len(others) < 4096 {
			others = append(others, slot.Payload)
		}
	}
	if len(others) == 0 || len(wanted) < want.Blocks {
		return fmt.Errorf("recording of %d slots does not cover file %q", len(recorded), want.Name)
	}
	cli := client.NewSubscriber(directory)
	if err := cli.Add(client.Request{File: want.Name}); err != nil {
		return err
	}
	t := 0
	ignored, n := timeOp(each, 4096, func() {
		cli.Observe(t, others[t%len(others)])
		t++
	})
	m.setN("client.observe_ignored_ns", ignored, n)

	if want.Blocks >= 2 {
		// Store M−1 distinct blocks (one short of completing), then
		// withdraw the request so the blocks recycle and it can start
		// over; only the Observe calls are timed.
		var keep [][]byte
		for _, p := range wanted {
			if len(keep) < want.Blocks-1 {
				keep = append(keep, p)
			}
		}
		stored, n, err := timePasses(each, func() (time.Duration, int, error) {
			t0 := time.Now()
			for _, p := range keep {
				t++
				if cli.Observe(t, p) != client.Stored {
					return 0, 0, errors.New("client did not store a fresh block of a pending file")
				}
			}
			elapsed := time.Since(t0)
			cli.Cancel(want.Name)
			return elapsed, len(keep), cli.Add(client.Request{File: want.Name})
		})
		if err != nil {
			return err
		}
		m.setN("client.observe_stored_ns", stored, n)
	}

	// Receiver.Step over the replayed recording, closed loop, with the
	// workload's reception faults.
	rec := &pinbcast.Recording{}
	for _, slot := range recorded {
		rec.Send(slot)
	}
	pass := int64(0)
	step, n, err := timePasses(each, func() (time.Duration, int, error) {
		pass++
		opts := []pinbcast.ReceiverOption{pinbcast.WithDirectory(directory)}
		if s.loss > 0 {
			opts = append(opts, pinbcast.WithReceiverFaults(pinbcast.BernoulliFaults(s.loss, seed+pass)))
		}
		rcv, err := pinbcast.Subscribe(rec.Source(), opts...)
		if err != nil {
			return 0, 0, err
		}
		next := 0
		t0 := time.Now()
		for {
			if rcv.Done() {
				if err := rcv.Request(files[next%len(files)].Name, 0); err != nil {
					return 0, 0, err
				}
				next++
			}
			if _, err := rcv.Step(); err != nil {
				if errors.Is(err, io.EOF) {
					return time.Since(t0), len(recorded), nil
				}
				return 0, 0, err
			}
		}
	})
	if err != nil {
		return err
	}
	m.setN("receiver.step_ns_per_slot", step, n)
	return nil
}

// tunerLayer times a MultiTuner retrieval with the wire taken away: the
// daemon's cluster is rebuilt in process exactly as bdserved builds it,
// a stretch of each channel is recorded, and the tuner retrieves closed
// loop from the replays until one runs dry.
func tunerLayer(m metricSet, s spec, each time.Duration) error {
	files := s.catalogue()
	contents := workload.Contents(files, s.blockSize, catalogueSeed)
	cl, err := pinbcast.NewCluster(
		pinbcast.WithChannels(daemonChannels),
		pinbcast.WithReplicas(daemonReplicas),
		pinbcast.WithShardName("balanced"),
		pinbcast.WithClusterBandwidth(pinbcast.SufficientBandwidth(files)),
		pinbcast.WithClusterFiles(files...),
		pinbcast.WithClusterContents(contents),
		pinbcast.WithStationOptions(pinbcast.WithSlotBuffer(slotBuffer)),
	)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	streams, err := cl.Serve(ctx)
	if err != nil {
		cancel()
		return err
	}
	recs := make([]*pinbcast.Recording, len(streams))
	for i, slots := range streams {
		recs[i] = &pinbcast.Recording{}
		for range 1 << 14 {
			slot := <-slots
			recs[i].Send(pinbcast.Slot{T: slot.T, Payload: slot.Payload})
		}
	}
	cancel()
	for _, slots := range streams {
		for range slots {
		}
	}

	perRetrieval, n, err := timePasses(each, func() (time.Duration, int, error) {
		srcs := make([]pinbcast.Source, len(recs))
		for i, rec := range recs {
			srcs[i] = rec.Source()
		}
		mt, err := pinbcast.NewMultiTuner(srcs, pinbcast.WithTunerDirectory(cl.Directory()))
		if err != nil {
			return 0, 0, err
		}
		defer mt.Close()
		var dst []pinbcast.ClusterResult
		t0 := time.Now()
		for done := 0; ; done++ {
			if err := mt.Request(files[done%len(files)].Name, 0); err != nil {
				return 0, 0, err
			}
			if dst, err = mt.RunInto(context.Background(), dst[:0]); err != nil {
				return 0, 0, err
			}
			if len(dst) != 1 || !dst[0].Completed { // a replay ran dry
				if done == 0 {
					return 0, 0, errors.New("multituner completed nothing from the replay")
				}
				return time.Since(t0), done, nil
			}
			mt.Recycle(dst[0])
		}
	})
	if err != nil {
		return err
	}
	m.setN("multituner.retrieval_us", perRetrieval/1e3, n)
	return nil
}
