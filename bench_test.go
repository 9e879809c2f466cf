package pinbcast_test

// One benchmark per table and figure of the paper's evaluation (the
// experiment index is exp.All), plus end-to-end performance
// benchmarks of the primary pipeline. Each experiment benchmark runs
// the generator that regenerates the corresponding artifact; run
//
//	go test -bench=. -benchmem
//
// and see cmd/experiments for the rendered tables.
//
// This file lives in the external test package: internal/exp drives
// the public Layout seam, so benchmarking it from inside package
// pinbcast would be an import cycle.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"pinbcast"
	"pinbcast/internal/core"
	"pinbcast/internal/exp"
	"pinbcast/internal/ida"
	"pinbcast/internal/pinwheel"
	"pinbcast/internal/workload"
	"pinbcast/internal/zeroalloc"
)

// E1 — Figure 5: flat broadcast program construction.
func BenchmarkFig5FlatProgram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// E2 — Figure 6: AIDA flat program with data cycle.
func BenchmarkFig6AIDAProgram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// E3 — Figure 7: exact adversarial worst-case delay table.
func BenchmarkFig7WorstCaseDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

// E4 — Lemmas 1–2 delay bounds on random programs.
func BenchmarkLemmaBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.LemmaBounds(6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — Equation 1 bandwidth sizing sweep.
func BenchmarkEq1Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Equation1([]int{5, 10, 20}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 — Equation 2 fault-tolerant bandwidth sweep.
func BenchmarkEq2FaultTolerantBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Equation2(4, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// E6b — per-file fault-tolerance policies (§3.2 generalization).
func BenchmarkPerFileFaultPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.PerFileFaults(4); err != nil {
			b.Fatal(err)
		}
	}
}

// E7 — Example 1 pinwheel systems (including proved infeasibility).
func BenchmarkExample1Schedulability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Example1(); err != nil {
			b.Fatal(err)
		}
	}
}

// E8 — Examples 2–6 algebra conversions.
func BenchmarkExamples2to6Conversions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Examples2to6(); err != nil {
			b.Fatal(err)
		}
	}
}

// E9 — §3.1 density bounds: scheduler success-rate sweep.
func BenchmarkSchedulerDensitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.DensitySweep([]float64{0.4, 0.6, 0.8}, 10, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// E10 — §5 block-size tradeoff.
func BenchmarkIDADispersalLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.BlockSizeTradeoff(8192, []int{4, 16, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// E12 — multi-disk vs pinwheel layouts.
func BenchmarkMultidiskVsPinwheel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.MultidiskVsPinwheel(); err != nil {
			b.Fatal(err)
		}
	}
}

// E14 — scheduler δ ablation.
func BenchmarkSchedulerDeltaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.SchedulerDeltaAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// Performance benchmarks of the primary pipeline.

func BenchmarkBuildProgramIVHS(b *testing.B) {
	files := workload.IVHS(6, 7)
	bw := core.SufficientBandwidth(files)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildProgram(files, bw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPortfolio32Tasks(b *testing.B) {
	files := workload.Random(32, 6, 10, 120, 1, 9)
	sys := core.TaskSystem(files, core.SufficientBandwidth(files))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pinwheel.Solve(sys, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndSimulation(b *testing.B) {
	files := []core.FileSpec{
		{Name: "A", Blocks: 5, Latency: 1, DispersalWidth: 10},
		{Name: "B", Blocks: 3, Latency: 1, DispersalWidth: 6},
	}
	prog, err := core.FlatSpread(files)
	if err != nil {
		b.Fatal(err)
	}
	contents := workload.Contents(files, 256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := pinbcast.Simulate(pinbcast.SimConfig{
			Program:  prog,
			Contents: contents,
			Fault:    pinbcast.BernoulliFaults(0.05, int64(i)),
			Clients: []pinbcast.ClientSpec{
				{Start: i % 16, Requests: []pinbcast.Request{{File: "A"}, {File: "B"}}},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// loopSource replays a recorded slot stream forever — the unbounded
// source the receiver throughput benchmarks drain.
type loopSource struct {
	slots []pinbcast.Slot
	i     int
}

func (s *loopSource) Next() (pinbcast.Slot, error) {
	slot := s.slots[s.i%len(s.slots)]
	s.i++
	return slot, nil
}

func (s *loopSource) Close() error { return nil }

// benchRecording captures a few data cycles of the standard two-file
// station for replay-driven receiver benchmarks.
func benchRecording(b *testing.B) (*pinbcast.Station, []pinbcast.Slot) {
	return benchRecordingOf(b, 256, []pinbcast.FileSpec{
		{Name: "A", Blocks: 4, Latency: 8, Faults: 1},
		{Name: "B", Blocks: 8, Latency: 40},
	})
}

func benchRecordingOf(b *testing.B, blockSize int, files []pinbcast.FileSpec) (*pinbcast.Station, []pinbcast.Slot) {
	b.Helper()
	st, err := pinbcast.New(
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(workload.Contents(files, blockSize, 5)),
		pinbcast.WithSlotBuffer(256),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]pinbcast.Slot, 4*st.Program().DataCycle())
	for i := range rec {
		rec[i] = <-slots
	}
	cancel()
	for range slots {
	}
	return st, rec
}

// BenchmarkReceiverSlots measures the receiver protocol loop: slots
// consumed per second while a request is pending (every slot decoded
// and classified, none completing), at 0 allocs/op. The history case
// first retrieves 256 distinct files to completion: what a receiver has
// finished must not cost its later slots anything, so the two cases
// read the same.
func BenchmarkReceiverSlots(b *testing.B) {
	files := make([]pinbcast.FileSpec, 256)
	for i := range files {
		files[i] = pinbcast.FileSpec{Name: fmt.Sprintf("f%03d", i), Blocks: 1, Latency: 384}
	}
	st, rec := benchRecordingOf(b, 256, files)
	for _, history := range []int{0, 256} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			r, err := pinbcast.Subscribe(&loopSource{slots: rec}, pinbcast.WithDirectory(st.Directory()))
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range files[:history] {
				if err := r.Request(f.Name, 0); err != nil {
					b.Fatal(err)
				}
			}
			for done := history == 0; !done; {
				if done, err = r.Step(); err != nil {
					b.Fatal(err)
				}
			}
			if err := r.Request("missing", 0); err != nil { // never broadcast: the loop never completes
				b.Fatal(err)
			}
			check := zeroalloc.Start(b)
			for i := 0; i < b.N; i++ {
				if _, err := r.Step(); err != nil {
					b.Fatal(err)
				}
			}
			check()
		})
	}
}

// BenchmarkReceiverRetrieveCycle measures steady-state retrieval on one
// receiver: request a file, step until it is rebuilt, take the result
// over, hand the buffer back, next file — the request entry leaves the
// pending set and a pooled one re-enters it every iteration, and nothing
// of a finished retrieval stays behind, at 0 allocs/op. The 64 KiB case
// has bdload lossy-bulk's shape — files of 2 to 8 blocks, r = 2, 5 % of
// slots lost — and counts the bytes of the files rebuilt.
func BenchmarkReceiverRetrieveCycle(b *testing.B) {
	b.Run("block=256B", func(b *testing.B) {
		st, rec := benchRecording(b)
		retrieveCycle(b, st, rec, []string{"A", "B"})
	})
	b.Run("block=64KiB", func(b *testing.B) {
		files := []pinbcast.FileSpec{
			{Name: "A", Blocks: 2, Latency: 24, Faults: 2},
			{Name: "B", Blocks: 5, Latency: 40, Faults: 2},
			{Name: "C", Blocks: 8, Latency: 64, Faults: 2},
		}
		st, rec := benchRecordingOf(b, 64<<10, files)
		b.SetBytes((2 + 5 + 8) * 64 << 10 / 3)
		retrieveCycle(b, st, rec, []string{"A", "B", "C"}, pinbcast.WithReceiverFaults(pinbcast.BernoulliFaults(0.05, 1)))
	})
}

func retrieveCycle(b *testing.B, st *pinbcast.Station, rec []pinbcast.Slot, names []string, opts ...pinbcast.ReceiverOption) {
	r, err := pinbcast.Subscribe(&loopSource{slots: rec}, append(opts, pinbcast.WithDirectory(st.Directory()))...)
	if err != nil {
		b.Fatal(err)
	}
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		if err := r.Request(names[i%len(names)], 0); err != nil {
			b.Fatal(err)
		}
		for done := false; !done; {
			if done, err = r.Step(); err != nil {
				b.Fatal(err)
			}
		}
		if results := r.Results(); len(results) == 1 && results[0].Completed {
			r.Recycle(results[0])
		} else {
			b.Fatalf("iteration %d: %+v", i, results)
		}
	}
	check()
}

// BenchmarkReceiverReconstruct measures full retrievals per second:
// subscribe to a replay, collect the hot file's dispersed blocks,
// reconstruct with IDA, take the result over into a reused slice.
func BenchmarkReceiverReconstruct(b *testing.B) {
	st, rec := benchRecording(b)
	dir := st.Directory()
	var dst []pinbcast.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := pinbcast.Subscribe(&loopSource{slots: rec},
			pinbcast.WithDirectory(dir), pinbcast.WithRequest("A", 0))
		if err != nil {
			b.Fatal(err)
		}
		if dst, err = r.RunInto(context.Background(), dst[:0]); err != nil {
			b.Fatal(err)
		}
		if len(dst) != 1 || !dst[0].Completed {
			b.Fatal("reconstruction failed")
		}
	}
}

// BenchmarkServeFanoutPipeline measures the full networked data plane
// in steady state: Station serve loop → Broadcast → TCP Fanout → framed
// wire → TCPSource (buffer reuse on) → Receiver protocol step. MB/s is
// wire payload throughput; the per-slot cost covers framing, one
// loopback round, frame decode and block classification, at 0
// allocs/op. cmd/bdload's fanout-steady workload is the gated form.
func BenchmarkServeFanoutPipeline(b *testing.B) {
	files := []pinbcast.FileSpec{
		{Name: "A", Blocks: 4, Latency: 8, Faults: 1},
		{Name: "B", Blocks: 8, Latency: 40},
	}
	st, err := pinbcast.New(
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(workload.Contents(files, 4096, 5)),
		pinbcast.WithSlotBuffer(256),
	)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	// A generous write timeout turns a full subscriber queue into
	// backpressure on the serve loop instead of an eviction: the
	// benchmark's receiver paces the whole pipeline.
	fan := pinbcast.NewFanout(ln, time.Hour)
	defer fan.Close()

	src, err := pinbcast.DialSource(fan.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	src.Reuse = true
	src.Timeout = 30 * time.Second
	r, err := pinbcast.Subscribe(src,
		pinbcast.WithDirectory(st.Directory()),
		pinbcast.WithRequest("missing", 0), // never broadcast: the loop never completes
	)
	if err != nil {
		b.Fatal(err)
	}
	for fan.ClientCount() < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.Broadcast(ctx, fan)

	// Warm the pipeline for one data cycle, and compute the average wire
	// payload per slot for SetBytes: every non-idle slot carries one
	// 4096-byte shard plus the block header.
	prog := st.Program()
	cycle := prog.DataCycle()
	busy := 0
	for t := 0; t < cycle; t++ {
		if prog.FileAt(t) != pinbcast.Idle {
			busy++
		}
		if _, err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
	blk, err := ida.DisperseFile(1, make([]byte, 4096), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(busy * len(blk[0].MarshalInto(nil)) / cycle))
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
	check()
	cancel()
	r.Close()
}

// BenchmarkStationBuild measures full service construction: admission
// of the file set, portfolio scheduling, AIDA dispersal.
func BenchmarkStationBuild(b *testing.B) {
	files := workload.IVHS(6, 7)
	contents := workload.Contents(files, 128, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pinbcast.New(pinbcast.WithFiles(files...), pinbcast.WithContents(contents)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralizedConstruction(b *testing.B) {
	files := []core.GenFileSpec{
		{Name: "nav", Blocks: 3, Latencies: []int{10, 14, 18}},
		{Name: "met", Blocks: 2, Latencies: []int{12, 16}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildGeneralizedProgram(files); err != nil {
			b.Fatal(err)
		}
	}
}

// Workload/QoS benchmarks: program construction per layout strategy
// and online transaction admission on a live station.

func benchmarkLayout(b *testing.B, name string) {
	b.Helper()
	files := workload.IVHS(6, 7)
	layout, ok := pinbcast.LookupLayout(name)
	if !ok {
		b.Fatalf("layout %q not registered", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pinbcast.Build(pinbcast.BuildConfig{Files: files, Layout: layout}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLayoutPinwheel(b *testing.B)       { benchmarkLayout(b, pinbcast.LayoutPinwheel) }
func BenchmarkLayoutTiered(b *testing.B)         { benchmarkLayout(b, pinbcast.LayoutTiered) }
func BenchmarkLayoutFlatSpread(b *testing.B)     { benchmarkLayout(b, pinbcast.LayoutFlatSpread) }
func BenchmarkLayoutFlatSequential(b *testing.B) { benchmarkLayout(b, pinbcast.LayoutFlatSequential) }

// BenchmarkAdmitTxn measures online QoS negotiation: one admit/release
// round trip of a two-read transaction against a live station.
func BenchmarkAdmitTxn(b *testing.B) {
	files := workload.IVHS(4, 7)
	st, err := pinbcast.New(
		pinbcast.WithFiles(files...),
		pinbcast.WithContents(workload.Contents(files, 128, 7)),
	)
	if err != nil {
		b.Fatal(err)
	}
	txn := pinbcast.Txn{
		Name:     "bench",
		Reads:    []string{files[0].Name, "route-map"},
		Deadline: 1 << 30,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.AdmitTxn(txn); err != nil {
			b.Fatal(err)
		}
		if err := st.ReleaseTxn(txn.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlPlane measures the control plane on the admit-churn
// catalogue shape of cmd/bdload (workload.Random(n, 8, 10, 80, 0, 1),
// one tolerated fault per file, 1 KiB blocks) at 16, 256 and 1024
// files: service construction, Negotiate of one more file, an
// AdmitTxn/ReleaseTxn round trip over four reads, Evict, and
// FailChannel of a two-channel cluster over the first quarter of the
// catalogue. Whatever resets the station between iterations runs with
// the timer stopped.
func BenchmarkControlPlane(b *testing.B) {
	churn := pinbcast.FileSpec{Name: "churn", Blocks: 4, Latency: 40, Faults: 1}
	for _, n := range []int{16, 256, 1024} {
		files := workload.Random(n, 8, 10, 80, 0, 1)
		for i := range files {
			files[i].Faults = 1
		}
		contents := workload.Contents(files, 1<<10, 1)
		churnData := make([]byte, churn.Blocks<<10)
		size := fmt.Sprintf("files=%d", n)
		station := func(b *testing.B) *pinbcast.Station {
			st, err := pinbcast.New(pinbcast.WithFiles(files...), pinbcast.WithContents(contents))
			if err != nil {
				b.Fatal(err)
			}
			return st
		}
		check := func(b *testing.B, err error) {
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run("New/"+size, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				station(b)
			}
		})
		b.Run("Negotiate/"+size, func(b *testing.B) {
			st := station(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := st.Negotiate(churn, churnData)
				check(b, err)
				b.StopTimer()
				check(b, st.ReleaseTxn(churn.Name))
				check(b, st.Evict(churn.Name))
				b.StartTimer()
			}
		})
		b.Run("AdmitTxn/"+size, func(b *testing.B) {
			st := station(b)
			txn := pinbcast.Txn{
				Name:     "txn",
				Reads:    []string{files[0].Name, files[n/3].Name, files[n/2].Name, files[n-1].Name},
				Deadline: 1 << 30,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := st.AdmitTxn(txn)
				check(b, err)
				check(b, st.ReleaseTxn(txn.Name))
			}
		})
		b.Run("Evict/"+size, func(b *testing.B) {
			st := station(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				check(b, st.Admit(churn, churnData))
				b.StartTimer()
				check(b, st.Evict(churn.Name))
			}
		})
		b.Run("FailChannel/"+size, func(b *testing.B) {
			sub := files[:n/4]
			bw := pinbcast.SufficientBandwidth(sub)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, err := pinbcast.NewCluster(
					pinbcast.WithChannels(2),
					pinbcast.WithReplicas(2),
					pinbcast.WithClusterBandwidth(bw),
					pinbcast.WithClusterFiles(sub...),
					pinbcast.WithClusterContents(contents),
				)
				check(b, err)
				_, err = cl.Negotiate(pinbcast.Txn{Name: "ctxn", Reads: []string{sub[0].Name}, Deadline: 1 << 30})
				check(b, err)
				b.StartTimer()
				_, err = cl.FailChannel(1)
				check(b, err)
			}
		})
	}
}
