package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestManifestMatchesDeclarations keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a regression may reach; end-to-end only
}

// endToEnd are the metrics a user of the system sees. Each is defined
// on all four workloads, is never zero on a healthy run, and repeats on
// a shared host whose speed moves by a third for minutes at a time,
// which is what lets the driver bound them; see README.md for why eight
// of the issue's thirteen (miss_ratio, the admit-churn timings, CPU per
// slot and the three wall-clock rates) are reported per layer instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_MB", "MB", "lower", 0.25},
	{"contract_ratio_p95", "ratio", "lower", 0.2},
	{"wall_contract_ratio_p50", "ratio", "lower", 0.25},
	{"wall_contract_ratio_p95", "ratio", "lower", 0.25},
}

// rateNames are the wall-clock rates. They are what a saturated
// pipeline's user would quote first, and they follow the host: the same
// code reads a third slower for the minutes a neighbour is busy. An
// untraced run still measures and prints them — it is the best estimate
// there is — but the result line carries them on traced runs only, as
// per-layer metrics without a bound.
var rateNames = []string{"slots_per_s", "retrievals_per_s", "goodput_MBps"}

// perLayer are the metrics of single layers, keyed by module name. A
// layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	// demoted end-to-end metrics
	{Name: "slots_per_s", Unit: "1/s", Better: "higher"},
	{Name: "retrievals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "admit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "admit_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "control_cycles_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_slot", Unit: "us", Better: "lower"},
	// control plane, isolated
	{Name: "pinwheel.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "server.new_ms", Unit: "ms", Better: "lower"},
	// codec, isolated
	{Name: "ida.disperse_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "ida.reconstruct_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "gf256.muladd_GBps", Unit: "GB/s", Better: "higher"},
	// serve path
	{Name: "server.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "station.serve_ns_per_slot", Unit: "ns", Better: "lower"},
	{Name: "station.serve_wait_share", Unit: "ratio", Better: "higher"},
	// fan-out
	{Name: "fanout.send_ns_per_slot", Unit: "ns", Better: "lower"},
	{Name: "fanout.backpressure_share", Unit: "ratio", Better: "lower"},
	{Name: "fanout.writev_batch_mean", Unit: "count", Better: "higher"},
	{Name: "fanout.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "fanout.evicted", Unit: "count", Better: "lower"},
	// wire
	{Name: "transport.write_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "transport.read_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "source.next_wait_share", Unit: "ratio", Better: "lower"},
	// receive path
	{Name: "client.observe_ignored_ns", Unit: "ns", Better: "lower"},
	{Name: "client.observe_stored_ns", Unit: "ns", Better: "lower"},
	{Name: "receiver.step_ns_per_slot", Unit: "ns", Better: "lower"},
	{Name: "receiver.complete_us", Unit: "us", Better: "lower"},
	{Name: "receiver.useful_block_ratio", Unit: "ratio", Better: "higher"},
	{Name: "receiver.corrupted_ratio", Unit: "ratio", Better: "lower"},
	{Name: "multituner.retrieval_us", Unit: "us", Better: "lower"},
	{Name: "multituner.hops", Unit: "count", Better: "lower"},
	{Name: "multituner.failed", Unit: "count", Better: "lower"},
	// control plane, live (admit-churn)
	{Name: "station.negotiate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "station.admittxn_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "station.releasetxn_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "station.evict_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "station.admit_live_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "station.swaps", Unit: "count", Better: "higher"},
	{Name: "cluster.new_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.negotiate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.failchannel_ms_p50", Unit: "ms", Better: "lower"},
	// daemon (daemon-paced)
	{Name: "daemon.slot_rate_ratio", Unit: "ratio", Better: "higher"},
	{Name: "daemon.interarrival_p99_over_interval", Unit: "ratio", Better: "lower"},
	{Name: "daemon.cpu_sys_share", Unit: "ratio", Better: "lower"},
	{Name: "daemon.scrape_ms", Unit: "ms", Better: "lower"},
	// the layer budget
	{Name: "budget.sum_ns_per_slot", Unit: "ns", Better: "lower"},
	{Name: "budget.unexplained_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// measurement is one reported number with the samples behind it.
type measurement struct {
	value float64
	n     int // sample count; 0 when the metric is not a sampled timing
}

// metricSet collects the measurements of one run, by metric name.
type metricSet map[string]measurement

func (m metricSet) set(name string, value float64) { m[name] = measurement{value: value} }

func (m metricSet) setN(name string, value float64, n int) { m[name] = measurement{value, n} }

// wireValue is one metric in the result line.
type wireValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]wireValue `json:"metrics"`
}

// pick returns the definitions of the named metrics, in that order.
func pick(defs []metricDef, names []string) []metricDef {
	var out []metricDef
	for _, name := range names {
		for _, d := range defs {
			if d.Name == name {
				out = append(out, d)
			}
		}
	}
	return out
}

// newResult assembles the result line from the declared metrics: every
// one of defs appears exactly once, and a measurement nobody declared —
// end to end or per layer — is an error rather than a silently dropped
// number.
func newResult(defs []metricDef, got metricSet, attempted, failed int, correct bool) (result, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]wireValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = wireValue{Value: got[d.Name].value, Unit: d.Unit}
	}
	for name := range got {
		if len(pick(endToEnd, []string{name}))+len(pick(perLayer, []string{name})) == 0 {
			return res, fmt.Errorf("metric %q measured but not declared", name)
		}
	}
	return res, nil
}

// printMetrics writes the human-readable table: name, value, unit and —
// for sampled timings — the sample count.
func printMetrics(w io.Writer, defs []metricDef, got metricSet) {
	for _, d := range defs {
		m := got[d.Name]
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-6s%s\n", d.Name, m.value, d.Unit, samples)
	}
}

// writeResult prints the result line.
func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
