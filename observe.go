package pinbcast

import (
	"strconv"

	"pinbcast/internal/obs"
)

// Station, cluster, tuner and receiver instruments, registered once at
// package init against the process-wide obs registry. Every family
// exists (at zero) in any process importing pinbcast, so a scrape of
// cmd/bdserved covers all four planes even before traffic flows; the
// hot paths below touch them with single atomic ops. The fan-out plane
// registers its own pin_fanout_* family in internal/transport.
var (
	stSlots = obs.Default().Counter("pin_station_slots_total",
		"Slots emitted by station serve loops, idle slots included.")
	stIdleSlots = obs.Default().Counter("pin_station_idle_slots_total",
		"Slots that went out empty: idle in the program and, on a paced station, not reclaimed.")
	stReclaimed = obs.Default().Counter("pin_station_reclaimed_slots_total",
		"Slots idle in the program in which a paced station sent a further block of a broadcast file.")
	stLateness = obs.Default().Histogram("pin_station_slot_lateness_us",
		"How far past its due time each paced slot left the serve loop, in microseconds.")
	stResyncs = obs.Default().Counter("pin_station_pacer_resyncs_total",
		"Times a paced serve loop fell too far behind to catch up and re-anchored its schedule.")
	stSwaps = obs.Default().Counter("pin_station_generation_swaps_total",
		"Program generations swapped in at data-cycle boundaries.")
	stBuildMicros = obs.Default().Histogram("pin_station_build_duration_us",
		"Wall time of program generation builds, in microseconds.")
	stFilesEncoded = obs.Default().Counter("pin_station_files_encoded_total",
		"Files dispersed by program generation builds; unchanged files are carried over from the previous generation.")
	stContracts = obs.Default().Gauge("pin_station_contracts",
		"QoS contracts currently in force across stations.")

	clChannelUp = func(ch int) *obs.Gauge { // per-channel liveness series
		return obs.Default().Gauge("pin_cluster_channel_up",
			"Whether the cluster channel is live (1) or failed (0).",
			obs.Label{Key: "channel", Value: strconv.Itoa(ch)})
	}
	clFaultBudget = obs.Default().Gauge("pin_cluster_fault_budget_remaining",
		"Channel deaths the cluster can still absorb without losing a replicated file: max(0, R-1-deaths).")
	clHeadroom = obs.Default().Gauge("pin_cluster_contract_headroom_slots",
		"Smallest degraded-minus-nominal latency slack over in-force cluster contracts, in slots.")
	clFailovers = obs.Default().Counter("pin_cluster_failovers_total",
		"Channels failed over with FailChannel.")
	clReadmitted = obs.Default().Counter("pin_cluster_files_readmitted_total",
		"Orphaned files re-admitted onto surviving channels.")
	clFilesLost = obs.Default().Counter("pin_cluster_files_lost_total",
		"Orphaned files no survivor could admit.")
	clRevoked = obs.Default().Counter("pin_cluster_contracts_revoked_total",
		"Cluster contracts revoked by failover re-verification.")

	tunHops = obs.Default().Counter("pin_tuner_hops_total",
		"Requests re-homed to another channel after a channel death.")
	tunMisses = obs.Default().Counter("pin_tuner_misses_total",
		"Missed-slot detections that killed a channel.")
	tunCompleted = obs.Default().Counter("pin_tuner_requests_completed_total",
		"Multi-tuner requests completed with a reconstruction.")
	tunPooled = obs.Default().Counter("pin_tuner_pooled_total",
		"Multi-tuner requests completed with blocks of more than one channel.")
	tunFailed = obs.Default().Counter("pin_tuner_requests_failed_total",
		"Multi-tuner requests flushed as failures.")
	tunLatencySlots = obs.Default().Histogram("pin_tuner_latency_slots",
		"Retrieval latency of completed multi-tuner requests, in slots.")

	rcvSlots = obs.Default().Counter("pin_receiver_slots_total",
		"Slots consumed by receivers.")
	rcvBlocks = obs.Default().Counter("pin_receiver_blocks_total",
		"Valid self-identifying blocks decoded by receivers.")
	rcvCorrupted = obs.Default().Counter("pin_receiver_corrupted_total",
		"Blocks receivers dropped for checksum failure.")

	// traceRing is the package-level slot-event ring the planes emit
	// into; bdserved serves its last events at /debug/trace.
	traceRing = obs.Trace()
)
