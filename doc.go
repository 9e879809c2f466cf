// Package pinbcast is a Go implementation of fault-tolerant real-time
// broadcast disks built on pinwheel scheduling, reproducing Baruah &
// Bestavros, "Pinwheel Scheduling for Fault-tolerant Broadcast Disks in
// Real-time Database Systems" (BUCS-TR-96-023 / ICDE 1997).
//
// A broadcast disk server continuously transmits database files on a
// downstream channel; clients fetch data "as it goes by". This package
// constructs broadcast programs that guarantee, for each file i of mᵢ
// blocks, retrieval within a latency Tᵢ even when up to rᵢ block
// transmissions are destroyed in transit:
//
//   - files are erasure-coded with Rabin's Information Dispersal
//     Algorithm (any mᵢ of the transmitted blocks reconstruct the file),
//   - the demand "mᵢ+rᵢ block slots in every window of B·Tᵢ slots" is
//     scheduled as the pinwheel task system {(mᵢ+rᵢ, B·Tᵢ)},
//   - the channel bandwidth B is sized with the paper's Equations 1–2
//     (at most 43% above the information-theoretic minimum), and
//   - a file with a per-fault-level latency vector d⃗ (§4) is a pinwheel
//     task with fault levels — mᵢ + j block slots in every d⁽ʲ⁾ — on the
//     same one-builder path, scheduled directly, with the paper's
//     pinwheel algebra (a certifying forcing engine) converting it to
//     nice conjuncts as a fallback.
//
// # The Station service
//
// The primary entry point is the Station: a long-lived broadcast
// service constructed with functional options that owns schedule
// construction, the dispersed file database, and a context-aware
// streaming broadcast loop:
//
//	station, err := pinbcast.New(
//		pinbcast.WithFile(pinbcast.FileSpec{Name: "traffic", Blocks: 4, Latency: 8, Faults: 1}, bulletin),
//		pinbcast.WithFile(pinbcast.FileSpec{Name: "map", Blocks: 8, Latency: 40}, tiles),
//	)
//	if err != nil { ... }
//	slots, err := station.Serve(ctx) // <-chan Slot, closed on ctx cancel
//	for slot := range slots {
//		transmit(slot.Payload) // one self-identifying AIDA block per slot
//	}
//
// Files are admitted and evicted online — station.Admit runs the
// paper's density-based admission control and swaps in the rebuilt
// program at the next data-cycle boundary (§2.3), where the outgoing
// block rotation ends (a retrieval across the swap: one window per
// generation it touched). See ExampleStation for a runnable lifecycle.
// Paced to a physical channel (WithSlotInterval), a station also sends
// further blocks of its files in the slots the program leaves idle:
// Station.Emission is what it serves, and every bound still holds.
//
// A station runs one construction: the §3 pinwheel program, scheduled
// by the paper's portfolio and certified at the station's bandwidth.
// The portfolio members (Sa, Sx, EDF, the two-distinct specialization,
// exact search) are named (SchedulerNames) and ordered per build with
// BuildConfig.Schedulers. The portfolio is the default chain, and every
// chain runs through one loop that re-verifies each schedule against
// its task system before a program is built from it.
//
// # Workloads & QoS
//
// The declarative QoS pipeline is catalog → layout → negotiate →
// guarantee. Catalogs export the paper's motivating workloads
// (IVHSCatalog, AWACSCatalog); a layout, named per build
// (BuildConfig.Layout, LayoutNames) and on the CLIs, decides how the
// broadcast program is constructed: the paper's worst-case-bounded
// "pinwheel" construction (§3, the default), the
// Acharya–Franklin–Zdonik "tiered" Broadcast-Disk layout it is argued
// against in §1 (auto-tiered by latency, mean-latency optimal, bounds
// nothing), or the "flat-spread"/"flat-sequential" baselines of
// Figures 5–6. A Station always builds the pinwheel construction, the
// only one that bounds every worst case.
// Program.LatencyProfile, Program.WorstLatency and
// Program.WeightedMeanLatency analyze any layout's program. Each is read
// off the program's occurrence index in closed form (§2.3, Lemma 2): a
// start in the gap before a file's k-th occurrence completes on
// occurrence k+M−1, or k+M−1+f when an adversary destroys f receptions.
//
// Transactions make the paper's headline guarantee concrete: a Txn is
// a read set with a firm deadline in slots; TxnLatency measures it
// exactly from a start slot, TxnWorstLatency over every start with each
// read under its rᵢ worst faults, on any program. On a live Station the
// guarantee is negotiated online — a contract is the windows B·Tᵢ of
// its reads, which the construction certified against each read's rᵢ
// faults, with retrieval and refresh composed into a staleness bound
// for §1's absolute temporal-consistency constraints:
//
//	contract, err := station.AdmitTxn(pinbcast.Txn{
//		Name: "trip", Reads: []string{"traffic-00", "route-map"}, Deadline: 1800,
//	})
//	c2, err := station.Negotiate(newFile, payload) // admit a file with a contract
//
// AdmitTxn and Negotiate run feasibility against the current file set
// and return a Contract{WorstLatencySlots, StalenessSlots,
// EffectiveAt} — or an ErrAdmission rejection that leaves the schedule
// and every standing contract untouched. Issued contracts are
// invariant: later Admit, Evict and Negotiate calls are verified
// against them and refused if they would stretch a promised bound
// (ReleaseTxn withdraws a contract; Contracts lists those in force).
// Accepted changes land on data-cycle boundaries like Admit and Evict.
//
// # The Receiver
//
// The client half of the pair is the Receiver, built with the same
// functional-options style. It subscribes to any Source of slots,
// learns the broadcast directory, collects self-identifying AIDA
// blocks for its requests, reconstructs each file from any M distinct
// blocks, and tracks per-request deadlines:
//
//	receiver, err := pinbcast.Subscribe(src,
//		pinbcast.WithDirectory(station.Directory()),
//		pinbcast.WithRequest("traffic", deadline),
//		pinbcast.WithReceiverFaults(pinbcast.BernoulliFaults(0.02, 1)),
//	)
//	results, err := receiver.RunInto(ctx, nil) // until every request completes
//	// ... use results, then hand each Data buffer back:
//	for _, res := range results {
//		receiver.Recycle(res)
//	}
//
// The receiver hands its results over and keeps none, so a loop that
// reuses results[:0] and recycles each buffer holds only its open
// requests and one output buffer, however long it runs.
//
// Reception faults are injected with the same fault models the
// simulator uses, and a receiver given the broadcast schedule
// (WithSchedule) dozes through irrelevant slots, splitting access
// latency from tuning time as in Imielinski et al.'s (1, m) air
// indexing.
//
// # The Cluster
//
// One channel is one Station; a production deployment runs many. The
// Cluster shards a catalog across K Stations (coordinator → K channels
// → MultiTuner) under a shard policy named with WithShardName
// (ShardHash, ShardHotCold, ShardBalanced),
// replicates the hottest files (HottestFiles) on R ≥ 2 channels —
// quorum-style:
// any K−R+1 live channels still carry every replicated file, so R−1
// whole-channel deaths are survived without repair, the
// Goemans–Lynch–Saias regime layered over the paper's per-channel IDA
// fault model — and exposes cluster-wide QoS: Cluster.Negotiate
// composes per-channel Contracts into a ClusterContract bounded by the
// best replica, with a degraded bound that replication sustains
// through channel loss.
//
// A replica is more blocks, not the same blocks again: a file on R
// channels is dispersed once, R·N blocks wide (at most 256), and its
// j-th home rotates through blocks [j·N, (j+1)·N) of that one code —
// the first sends what a lone station would, the others parity, each
// block under its own number (Slot.Seq is Block.Seq; Program.BlockAt
// still counts rotation positions). Any home alone sends N distinct
// blocks any m of which rebuild the file, so every per-channel window
// and contract holds as computed; a listener of several homes never
// hears a block twice and may pool them, which is promised to nobody.
//
//	c, err := pinbcast.NewCluster(
//		pinbcast.WithChannels(3), pinbcast.WithReplicas(2),
//		pinbcast.WithFiles(files...),
//		pinbcast.WithContents(contents),
//	)
//	cc, err := c.Negotiate(pinbcast.Txn{Name: "trip", Reads: reads, Deadline: d})
//	rep, err := c.FailChannel(1) // failover: re-admit, re-verify, revoke
//
// The receiving half is the MultiTuner: one logical receiver
// subscribed to every channel concurrently, merging directories,
// retrieving each request from the cheapest live carrier
// (Cluster.FetchPlan) and hopping channels on failure, with the blocks
// the dead channel delivered. A request collecting on several channels
// (scan mode) pools: the channel that stores a block takes over what
// the others hold, and the retrieval ends on the slot that brings the
// union to m distinct blocks (MultiTunerMetrics.Pooled). Health comes
// from a missed-slot detector on the fan-out seam — slot-numbering
// gaps and read timeouts accumulate toward a death threshold, EOF
// kills a channel outright — and a request whose carriers all died
// scans the survivors, so files the coordinator re-admitted elsewhere
// (FailChannel lands them at the survivors' next data-cycle
// boundaries, exactly like Admit) are still found. Contracts the
// failover can no longer honor are revoked with errors wrapping
// ErrDegraded rather than silently stretched. A run starts its own
// channel drivers and ends on the slot that completes its last request;
// a driver still reading a losing channel hands that frame on and exits.
// See examples/cluster (plan, negotiate, kill a channel, fail over,
// retrieve with hops) and, for the daemon form, cmd/bdserved with
// station.channels > 1.
//
// # Transports
//
// Station and Receiver meet over a symmetric transport seam: a Station
// stream feeds any Sink, a Receiver drains any Source. Three transports
// ship with the package:
//
//   - in-process: SlotSource(station.Serve(ctx)) — zero-copy channel
//   - framed TCP: NewFanout(ln, 0) on the air side (per-subscriber
//     send queues; a stalled subscriber is evicted and never delays
//     the others), DialSource(addr) on the tuner side
//   - recorded: Recording captures any stream (it is itself a Sink)
//     and replays it any number of times via Recording.Source
//
// One Receiver runs unchanged against all three. Station.Broadcast
// serves a station's stream into a sink.
//
// # Performance
//
// The data plane is allocation-free in steady state: the station serves
// cached wire forms, the fan-out writer gathers queued frames into one
// net.Buffers writev per flush, the TCP receive path reads through a
// buffered layer and reuses its frame buffers (TCPSource.Reuse opts
// the subscriber side in), and the receiver decodes a block it keeps
// straight into its row of the file's output buffer once the file's
// first systematic block has placed that buffer, and every other block
// into a scratch buffer. Retrieval loops close the cycle with
// MultiTuner.RunInto/Recycle (or Receiver.Recycle) so reconstruction
// output buffers circulate instead of accumulating. Dispersal and
// reconstruction run through architecture-specific SIMD GF(2⁸) kernels
// (amd64 GFNI/AVX-512 bit-matrix multiplies, which also rebuild each
// missing row in one fused pass, then AVX2/SSSE3 PSHUFB and arm64 NEON
// VTBL nibble tables, selected at init; `-tags purego` keeps only the
// portable word-wide path) over a systematic dispersal matrix — the
// first m blocks of every file are verbatim source blocks, so encode
// pays only for redundancy and a fault-free decode is a copy — at
// multiple GB/s per core. Every encode, a station's included, runs one
// loop, each redundant row one fused gf256.MulSumSlice pass (see the
// Performance section of README.md for the measured series and the
// buffer-ownership rules of the streaming APIs). A file is encoded
// once, each block straight into its wire frame (Block.Payload aliases
// the frame past its header), a station build's small files into one
// slab and a large one (frames of 32 KiB or more) into its own. Later
// builds carry unchanged files' frames over, so Admit, Evict and
// Negotiate encode only what changed; a carried file keeps its build's
// slab alive, so a station holds at most the frame bytes of the builds
// its files came from. Hence two rules: contents
// handed to WithFile, WithContents, Admit or Negotiate belong to the
// station and must not be mutated; a Slot's Block and Payload are
// shared — copy before mutating. The rule that holds these loops to
// zero allocations is in the benchmarks themselves: every benchmark
// that calls internal/zeroalloc.Start fails by itself on a non-zero
// allocs/op, so the list of allocation-free loops is the list of its
// callers.
// Neither a Receiver nor a MultiTuner keeps a result history: RunInto
// hands each run's results to the caller and forgets them, and a run
// spawns its drivers from func values built once, allocating nothing.
// Speed is gated end to end by cmd/bdload against BENCHMARK.json; to
// profile a live pipeline use the daemon's /debug/pprof.
//
// # Observability
//
// Every plane reports into a zero-allocation observability layer
// (internal/obs): a typed registry of atomic counters, gauges and
// power-of-two latency histograms — Inc/Observe are //pinlint:hotpath,
// proven allocation-free, and padded against false sharing — plus a
// lock-free overwrite-oldest ring of slot trace events (slot served,
// with the file and block it carried, frame flushed, block corrupted, miss detected, channel hop, failover
// re-admit, contract revoked). The station, fan-out, cluster, receiver
// and multi-tuner families (pin_station_*, pin_fanout_*, pin_cluster_*,
// pin_receiver_*, pin_tuner_*) are registered by this package and
// maintained by the instrumented hot loops at no per-slot cost.
//
// Three consumers ship with the module. cmd/bdserved is the daemon
// mode: a Station or Cluster broadcasting over TCP fan-out with the
// registry served in Prometheus text format at /metrics (a hand-rolled,
// golden-tested encoder — no client library, and the registry's only
// exposition), the process's expvar at /debug/vars, pprof at
// /debug/pprof, the trace ring's last events as JSON Lines at
// /debug/trace, and a SIGTERM drain that stops each channel at its next
// data-cycle boundary. cmd/bdsim -metrics-out writes the same text
// after a simulation. In-process, Receiver.Metrics and
// MultiTuner.Metrics return the stable per-instance snapshots
// (ReceiverMetrics, MultiTunerMetrics) — per-instance counts for one
// receiver's outcome, the registry for whole-process rates. See the
// README's Observability section for the metric and trace schemas.
//
// All failures wrap the package's typed errors — ErrBadSpec,
// ErrInfeasible, ErrBandwidth, ErrAdmission — so callers classify them
// with errors.Is regardless of the originating layer.
//
// One-shot construction (without a service lifecycle) goes through
// Build, §4 files with a latency vector (FileSpec.Latencies) included;
// Simulate runs a client population as Receivers on a virtual clock —
// the program read through the station's own emitter, no transport, no
// goroutines — so seeded runs are exactly reproducible.
//
// The top-level package is a facade over the implementation packages:
//
//	internal/gf256     GF(2⁸) field arithmetic
//	internal/gfmat     matrix algebra over GF(2⁸)
//	internal/ida       Rabin IDA and AIDA dispersal
//	internal/pinwheel  pinwheel schedulers and verifier
//	internal/algebra   pinwheel algebra and conversions
//	internal/core      broadcast program construction
//	internal/multidisk frequency-tiered Broadcast Disks (the "tiered" layout)
//	internal/server    broadcast server
//	internal/channel   fault-injecting channel models
//	internal/client    reconstructing client protocol
//	internal/transport framed TCP fan-out
//	internal/cluster   shard policies, replica planning, channel health
//	internal/obs       metrics registry, trace ring, exposition
//	internal/rtdb      real-time database layer
//	internal/workload  scenario generators
//	internal/exp       paper table/figure reproduction
//	internal/analyzers custom static analyzers (cmd/pinlint)
//
// See README.md for a quickstart and the mapping from API names to the
// paper's sections.
//
// # Machine-checked invariants
//
// Comments of the form //pinlint:... are machine-readable annotations
// consumed by the eleven static analyzers in internal/analyzers (run
// with `go run ./cmd/pinlint ./...`, a required CI step):
// //pinlint:hotpath marks a function that must not allocate per call
// (one rule, hotpath: the real compiler's escape analysis decides what
// reaches the heap, and five syntactic rules add what it cannot see —
// a call to an un-annotated module function, append to an uncapped
// local, string concatenation, fmt, a go statement; `go build
// -gcflags=-m` is the ad-hoc listing), //pinlint:cycle-boundary marks a
// program mutator reachable only from admission seams, //pinlint:holds
// asserts a caller-held mutex (consumed by lockcheck for guarded-field
// proofs and by lockorder to build the module-wide lock-acquisition
// graph, which must stay acyclic), and `guarded by <mu>` field comments
// bind fields to their mutex. goroleak requires every spawned goroutine
// to show a termination path — a context, stop channel, or WaitGroup —
// in its control flow.
//
// Four interprocedural analyzers reason over the module call graph:
// chansafe enforces the channel close/ownership contract (a channel is
// closed once, never sent on after a possible close, and a function
// closing a channel parameter must declare it send-only — chan<- T —
// so ownership is visible in the signature); cancelflow requires every
// blocking operation reachable from a long-running entry point (Serve,
// Run, Drive, Broadcast) to be gated by a cancellation signal
// (ctx.Done, a stop channel, a timer, or a select default) somewhere
// on the path; slotmath requires schedule-quantity products and shifts
// to go through the checked internal/slotmath helpers and divisions by
// schedule quantities to be guarded; and waiverlint keeps the waiver
// inventory honest. A cold diagnostic inside a hot function is waived
// in place with //pinlint:allow <analyzer> — justification; the
// justification text is mandatory and waiverlint fails the build on
// unjustified, unknown-name, or stale waivers (waiverlint itself
// cannot be waived). See the README's "Static analysis" section for
// the full contract and the lock hierarchy diagram.
package pinbcast
