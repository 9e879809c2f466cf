package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"pinbcast"
	"pinbcast/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
}

// The picker must return the highest percentile that still has ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {360, 95, true},
		{999, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestBoundComparator(t *testing.T) {
	for _, tc := range []struct {
		better        string
		first, second float64
		worse         float64
	}{
		{"lower", 100, 110, 0.10},
		{"lower", 100, 90, -0.10},
		{"higher", 100, 90, 0.10},
		{"higher", 100, 125, -0.25},
		{"lower", 2, 2, 0},
	} {
		if got := worseBy(tc.better, tc.first, tc.second); math.Abs(got-tc.worse) > 1e-12 {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", tc.better, tc.first, tc.second, got, tc.worse)
		}
	}
	if !withinBound("lower", 0.10, 100, 110) || withinBound("lower", 0.10, 100, 110.1) {
		t.Error("a lower-is-better metric may worsen by exactly its bound and no more")
	}
	if !withinBound("higher", 0.10, 100, 90) || withinBound("higher", 0.10, 100, 89.9) {
		t.Error("a higher-is-better metric may worsen by exactly its bound and no more")
	}
	if !withinBound("higher", 0.05, 100, 500) {
		t.Error("an improvement is always within bound")
	}
	if withinBound("lower", 0.25, 0, 1) {
		t.Error("anything is worse than a zero baseline")
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	line := "4242 (bd (served) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 157 43 0 0 20 0 7 0 12345 1000000 250 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got.user != 1570*time.Millisecond || got.sys != 430*time.Millisecond {
		t.Errorf("parseProcStat = %v user, %v sys; want 1.57s, 430ms", got.user, got.sys)
	}
	if got.total() != 2*time.Second {
		t.Errorf("total = %v, want 2s", got.total())
	}
	for _, bad := range []string{"", "1 bdserved S 1", "1 (x) S 1 2 3"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseSchedstat(t *testing.T) {
	d, err := parseSchedstat([]byte("423111100 55426819 601\n"))
	if err != nil || d != 423111100*time.Nanosecond {
		t.Errorf("parseSchedstat = %v, %v", d, err)
	}
	for _, bad := range []string{"", "1 2", "x 2 3", "-1 2 3"} {
		if _, err := parseSchedstat([]byte(bad)); err == nil {
			t.Errorf("parseSchedstat(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbdserved\nVmPeak:\t 1234567 kB\nVmHWM:\t    9472 kB\nVmRSS:\t    9000 kB\n"
	kb, err := parseVmHWM([]byte(status))
	if err != nil || kb != 9472 {
		t.Errorf("parseVmHWM = %d, %v; want 9472", kb, err)
	}
	for _, bad := range []string{"", "VmRSS:\t 1 kB\n", "VmHWM:\t lots\n", "VmHWM:\t 12 MB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestParseBootLine(t *testing.T) {
	bl, ok := parseBootLine("data channel 1 listening on 127.0.0.1:40001 (bandwidth 3, data cycle 240)")
	if !ok || bl.ops || bl.channel != 1 || bl.addr != "127.0.0.1:40001" || bl.bandwidth != 3 || bl.cycle != 240 {
		t.Errorf("data line parsed as %+v, %v", bl, ok)
	}
	bl, ok = parseBootLine("ops listening on http://127.0.0.1:40002")
	if !ok || !bl.ops || bl.addr != "127.0.0.1:40002" {
		t.Errorf("ops line parsed as %+v, %v", bl, ok)
	}
	for _, other := range []string{
		"", "drained, exiting", "ops listening on http://",
		"received terminated, draining to data-cycle boundaries (deadline 100ms)",
		"data channel x listening on 127.0.0.1:1 (bandwidth 3, data cycle 240)",
		"data channel 0 listening on 127.0.0.1:1",
	} {
		if _, ok := parseBootLine(other); ok {
			t.Errorf("parseBootLine(%q) recognised a boot line", other)
		}
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP pin_station_slots_total Slots emitted.
# TYPE pin_station_slots_total counter
pin_station_slots_total 12345
pin_cluster_channel_up{channel="0"} 1
pin_cluster_channel_up{channel="1"} 1
pin_fanout_writev_batch_frames_sum 40
pin_fanout_writev_batch_frames_count 39
pin_fanout_writev_batch_frames_bucket{le="+Inf"} 39
garbage
`
	m := parseExposition(text)
	if m["pin_station_slots_total"] != 12345 || m["pin_cluster_channel_up"] != 2 ||
		m["pin_fanout_writev_batch_frames_sum"] != 40 || m["pin_fanout_writev_batch_frames_count"] != 39 {
		t.Errorf("parseExposition = %v", m)
	}
}

// The generated TOML must carry exactly the keys bdserved documents
// (cmd/bdserved/config.go), with the values it was rendered from; an
// unknown key would make the daemon refuse to boot.
func TestRenderConfigRoundTrip(t *testing.T) {
	cfg := daemonConfig{
		Name: "daemon-paced", Files: 16, Faults: 1, Seed: 7, BlockSize: 1024,
		SlotInterval: time.Millisecond, Channels: 2, Replicas: 2, Shard: "balanced",
		DrainTimeout: 100 * time.Millisecond,
	}
	text, err := renderConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	section := ""
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || line[0] == '#':
		case line[0] == '[':
			section = strings.Trim(line, "[]")
		default:
			key, value, ok := strings.Cut(line, "=")
			if !ok {
				t.Fatalf("line %q is not key = value", line)
			}
			got[section+"."+strings.TrimSpace(key)] = strings.TrimSpace(value)
		}
	}
	want := map[string]string{
		"station.files": "16", "station.faults": "1", "station.seed": "7", "station.block_size": "1024",
		"station.slot_interval": `"1ms"`, "station.channels": "2", "station.replicas": "2", "station.shard": `"balanced"`,
		"listen.data": `"127.0.0.1:0"`, "listen.ops": `"127.0.0.1:0"`, "drain.timeout": `"100ms"`,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %s, want %s", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("undocumented key %s", k)
		}
	}
	if d, err := time.ParseDuration(strings.Trim(got["station.slot_interval"], `"`)); err != nil || d != cfg.SlotInterval {
		t.Errorf("slot_interval does not parse back: %v, %v", d, err)
	}
}

func TestClassify(t *testing.T) {
	want := []byte("contents")
	ok := pinbcast.Result{Completed: true, Data: []byte("contents"), Latency: 10, DeadlineMet: false}
	for _, tc := range []struct {
		name     string
		res      pinbcast.Result
		deadline int
		fault    fault
	}{
		{"verified", ok, 10, verified}, // DeadlineMet is not consulted
		{"late", ok, 9, late},
		{"wrong", pinbcast.Result{Completed: true, Data: []byte("Contents"), Latency: 1}, 10, wrongBytes},
		{"short", pinbcast.Result{Completed: true, Data: []byte("content"), Latency: 1}, 10, wrongBytes},
		{"failed", pinbcast.Result{Data: want, DeadlineMet: true}, 10, failed},
	} {
		if got := classify(tc.res, want, tc.deadline); got != tc.fault {
			t.Errorf("%s: classify = %v, want %v", tc.name, got, tc.fault)
		}
	}
}

// The clipped fault process must stay inside the hypothesis the paper's
// guarantee is conditional on: no file loses more than r of its blocks
// in any window of B·Tᵢ slots — while still injecting faults.
func TestBoundedFaultsStayInsideTheHypothesis(t *testing.T) {
	s, _ := findSpec("lossy-bulk")
	s.blockSize = 16
	s.loss = 0.3 // far above the workload's rate, so the clip is what is tested
	files := s.catalogue()
	st, err := pinbcast.New(pinbcast.WithFiles(files...), pinbcast.WithContents(workload.Contents(files, s.blockSize, 1)))
	if err != nil {
		t.Fatal(err)
	}
	r := &run{spec: s, seed: 3}
	fm := r.faults(0, st, files)
	prog := st.Program()
	hits := make([][]int, len(files))
	injected := 0
	for slot := 0; slot < 200000; slot++ {
		f := prog.FileAt(slot)
		if f == pinbcast.Idle {
			continue
		}
		if fm.Corrupts(slot) {
			hits[f] = append(hits[f], slot)
			injected++
		}
	}
	if injected < 1000 {
		t.Fatalf("only %d faults injected in 200000 slots", injected)
	}
	for f, spec := range files {
		window := st.Bandwidth() * spec.Latency
		for k := spec.Faults; k < len(hits[f]); k++ {
			if span := hits[f][k] - hits[f][k-spec.Faults]; span < window {
				t.Fatalf("file %s: %d faults within %d slots, window %d allows %d",
					spec.Name, spec.Faults+1, span+1, window, spec.Faults)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is written by hand; this keeps it equal to what the
// program declares and inside the limits its schema sets.
func TestManifestMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "cmd/bdload" {
		t.Errorf("paths = %v", manifest.Paths)
	}
	if manifest.RunSeconds < 1 || manifest.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", manifest.RunSeconds)
	}
	// 4 + 22 × workloads runs, plus two builds, inside 3420 s.
	runs := 4 + 22*len(manifest.Workloads)
	if total := runs * (manifest.RunSeconds + 8); total > 3420-2*120 {
		t.Errorf("%d runs of %d s measured leave no room in 3420 s (estimated %d s)", runs, manifest.RunSeconds, total)
	}
	if len(manifest.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(manifest.Workloads), len(specs))
	}
	seen := map[string]bool{}
	for i, w := range manifest.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest has %q, program has %q", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %q breaks the schema", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the manifest, %d declared", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: manifest %+v, declared %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] ||
				(g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %q breaks the schema", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %q: bound %v, declared %v", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd, true)
	check("per_layer", manifest.PerLayer, perLayer, false)
	if len(manifest.PerLayer) > 128 || len(manifest.EndToEnd) > 16 {
		t.Error("too many metrics")
	}
	setup := manifest.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", setup)
	}
	for _, m := range manifest.EndToEnd[1:] {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// smoke runs one workload for well under a second through the same
// entry point the driver uses and checks only that it ran, verified,
// and printed every declared metric — nothing about how fast.
func smoke(t *testing.T, workloadName string, trace string, defs []metricDef) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := mainRun([]string{"--workload", workloadName, "--seed", "5", "--seconds", "0.5", "--trace", trace, "-out", t.TempDir()},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics in the result, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing from the result", d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, declared %q", d.Name, v.Unit, d.Unit)
		}
		if !strings.Contains(stdout.String(), "  "+d.Name+" ") {
			t.Errorf("metric %s missing from the table", d.Name)
		}
	}
}

func TestSmokeInProcessWorkloads(t *testing.T) {
	for _, name := range []string{"fanout-steady", "lossy-bulk", "admit-churn"} {
		t.Run(name+"/end-to-end", func(t *testing.T) { smoke(t, name, "0", endToEnd) })
		t.Run(name+"/per-layer", func(t *testing.T) { smoke(t, name, "1", perLayer) })
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}, {"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := mainRun(args, &stdout, &stderr); code != 2 {
			t.Errorf("bdload %v exited %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("bdload %v printed to stdout: %s", args, stdout.String())
		}
	}
}
