package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"pinbcast"
	"pinbcast/internal/workload"
)

func TestLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bdserved.toml")
	if err := os.WriteFile(path, []byte(`
# daemon config
[station]
files = 6
seed = 42            # trailing comment
slot_interval = "1ms"  # a comment after a closing quote
channels = 2
replicas = 1
shard = "hash"

[listen]
data = "127.0.0.1:0"
ops = "0.0.0.0:9091" # not a "quoted # comment"

[drain]
timeout = "3s"
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Files != 6 || cfg.Seed != 42 || cfg.SlotInterval != time.Millisecond ||
		cfg.Channels != 2 || cfg.Replicas != 1 || cfg.Shard != "hash" ||
		cfg.Ops != "0.0.0.0:9091" || cfg.Timeout != 3*time.Second {
		t.Fatalf("parsed config = %+v", cfg)
	}
	if cfg.Faults != 1 || cfg.BlockSize != 128 {
		t.Fatalf("unset keys lost their defaults: %+v", cfg)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	for name, content := range map[string]string{
		"unknown section": "[nope]\n",
		"unknown key":     "[station]\nfile_count = 3\n",
		"bad value":       "[station]\nfiles = many\n",
		"bare value":      "[listen]\ndata = 127.0.0.1:0\n",
		"bad range":       "[station]\nfiles = 0\n",
		"bad replicas":    "[station]\nchannels = 2\nreplicas = 3\n",
		"open string":     "[station]\nshard = \"ha#sh\n",
		// A block that cannot fit a frame would evict every subscriber.
		"oversized block": "[station]\nblock_size = 2000000\n",
	} {
		path := filepath.Join(t.TempDir(), "bad.toml")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); err == nil {
			t.Errorf("%s: LoadConfig accepted %q", name, content)
		}
	}
}

func TestMainRunUsage(t *testing.T) {
	var errBuf bytes.Buffer
	if code := mainRun([]string{"-bogus"}, nil, io.Discard, &errBuf); code != 2 {
		t.Fatalf("bad flags exited %d, want 2", code)
	}
	if code := mainRun([]string{"-config", "/does/not/exist.toml"}, nil, io.Discard, &errBuf); code != 2 {
		t.Fatalf("missing config exited %d, want 2", code)
	}
}

// scrape fetches one /metrics exposition and returns the value of the
// named unlabeled sample, or -1 when absent.
func scrape(t *testing.T, base, metric string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, metric+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return v
		}
	}
	return -1
}

// TestDaemonSmoke is the in-process version of the CI smoke job: boot
// the smoke configuration on ephemeral ports, watch
// pin_station_slots_total advance across two scrapes, check the
// /debug endpoints answer and /debug/trace shows the slots a
// subscriber just received, then SIGTERM it and require a clean exit
// within the drain deadline.
func TestDaemonSmoke(t *testing.T) {
	cfg, err := parseConfig([]byte(smokeConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ops = "127.0.0.1:0"

	sigs := make(chan os.Signal, 1)
	outR, outW := io.Pipe()
	exited := make(chan error, 1)
	go func() {
		err := serve(cfg, sigs, outW)
		outW.Close()
		exited <- err
	}()

	opsRe := regexp.MustCompile(`ops listening on (http://\S+)`)
	dataRe := regexp.MustCompile(`data channel 0 listening on (\S+)`)
	opsURL, dataAddr := "", ""
	lines := make(chan string, 16)
	go func() {
		buf := make([]byte, 4096)
		acc := ""
		for {
			n, err := outR.Read(buf)
			acc += string(buf[:n])
			for {
				line, rest, ok := strings.Cut(acc, "\n")
				if !ok {
					break
				}
				lines <- line
				acc = rest
			}
			if err != nil {
				close(lines)
				return
			}
		}
	}()
	deadline := time.After(15 * time.Second)
	for opsURL == "" || dataAddr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("daemon exited before printing its listeners")
			}
			if m := opsRe.FindStringSubmatch(line); m != nil {
				opsURL = m[1]
			}
			if m := dataRe.FindStringSubmatch(line); m != nil {
				dataAddr = m[1]
			}
		case <-deadline:
			t.Fatal("daemon did not print its listeners in time")
		}
	}

	// The station serves consumer-paced slots through the fan-out, so
	// the counter advances even with no subscriber connected.
	first := -1.0
	for i := 0; i < 100 && first <= 0; i++ {
		first = scrape(t, opsURL, "pin_station_slots_total")
		time.Sleep(20 * time.Millisecond)
	}
	if first <= 0 {
		t.Fatal("pin_station_slots_total never advanced past 0")
	}
	second := first
	for i := 0; i < 100 && second <= first; i++ {
		time.Sleep(20 * time.Millisecond)
		second = scrape(t, opsURL, "pin_station_slots_total")
	}
	if second <= first {
		t.Fatalf("pin_station_slots_total stalled at %v", first)
	}

	// All four planes' families are present in one scrape.
	resp, err := http.Get(opsURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"pin_station_slots_total", "pin_station_slot_lateness_us",
		"pin_station_pacer_resyncs_total", "pin_station_files_encoded_total",
		"pin_fanout_frames_total",
		"pin_cluster_fault_budget_remaining", "pin_tuner_hops_total",
		"pin_receiver_slots_total",
	} {
		if !strings.Contains(string(body), "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(opsURL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s answered %d", path, resp.StatusCode)
		}
	}

	// What happened just before now: a subscriber's slots leave through
	// the fan-out, so the ring holds serve and flush events, and reading
	// it twice shows it is a snapshot, not a drain.
	src, err := pinbcast.DialSource(dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 32; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatalf("subscriber slot %d: %v", i, err)
		}
	}
	for pass := 1; pass <= 2; pass++ {
		resp, err := http.Get(opsURL + "/debug/trace")
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		var prev uint64
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("/debug/trace line %q: %v", sc.Text(), err)
			}
			fields := []string{"seq", "kind", "channel", "file", "block", "t", "aux"}
			for _, field := range fields {
				if _, ok := ev[field]; !ok || len(ev) != len(fields) {
					t.Fatalf("/debug/trace line %q: want exactly the fields %v", sc.Text(), fields)
				}
			}
			var seq uint64
			var kind string
			if json.Unmarshal(ev["seq"], &seq) != nil || json.Unmarshal(ev["kind"], &kind) != nil || seq <= prev {
				t.Fatalf("/debug/trace line %q after seq %d: want an increasing seq and a kind name", sc.Text(), prev)
			}
			prev = seq
			kinds[kind]++
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"slot_served", "frame_flushed"} {
			if kinds[want] == 0 {
				t.Errorf("/debug/trace pass %d has no %q events (kinds: %v)", pass, want, kinds)
			}
		}
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon failed after SIGTERM: %v", err)
		}
	case <-time.After(cfg.Timeout + 5*time.Second):
		t.Fatal("daemon did not drain within the deadline")
	}
}

// TestDaemonReclaimsIdleSlots boots a paced two-channel daemon and
// reads where its air goes from its own outputs: after the listener
// lines, one line per channel says how many of the program's idle slots
// the channel reclaims — what its station's Emission fills of its
// Program, all but fewer than the smallest dispersal width among the
// files the channel reclaims for (those it is the first home of) — and
// what that buys, the expected retrieval over the window on the emission
// and, strictly more, on the program alone; and /metrics shows reclaimed
// slots going out while the slots that still leave empty stay inside
// that bound.
func TestDaemonReclaimsIdleSlots(t *testing.T) {
	cfg, err := parseConfig([]byte("[station]\nfiles = 16\nslot_interval = \"50us\"\nchannels = 2\n[drain]\ntimeout = \"5s\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	// The cluster serve builds, built again: a plan is a pure function
	// of the catalogue and the options.
	files := workload.Random(cfg.Files, 6, 10, 80, 0, cfg.Seed)
	for i := range files {
		files[i].Faults = cfg.Faults
	}
	cl, err := pinbcast.NewCluster(
		pinbcast.WithChannels(cfg.Channels), pinbcast.WithReplicas(cfg.Replicas), pinbcast.WithShardName(cfg.Shard),
		pinbcast.WithClusterBandwidth(pinbcast.SufficientBandwidth(files)),
		pinbcast.WithClusterFiles(files...), pinbcast.WithClusterContents(workload.Contents(files, cfg.BlockSize, cfg.Seed)),
		pinbcast.WithStationOptions(pinbcast.WithSlotInterval(cfg.SlotInterval)))
	if err != nil {
		t.Fatal(err)
	}
	homes := cl.Assignment()
	want := make([][3]int, cfg.Channels) // per channel: reclaimed, idle, min Nᵢ it reclaims for
	minWidth := 0                        // the largest of those widths: what bounds the empty slots of any channel
	replicas := 0                        // files some channel carries and leaves to their first home
	for ch := range want {
		st := cl.Station(ch)
		prog, emission := st.Program(), st.Emission()
		for off, f := range prog.Slots {
			if f == pinbcast.Idle {
				want[ch][1]++
				if emission.Slots[off] != pinbcast.Idle {
					want[ch][0]++
				}
			}
		}
		want[ch][2] = 1 << 30
		for _, f := range st.Files() {
			if homes[f.Name][0] == ch {
				want[ch][2] = min(want[ch][2], f.Blocks+f.Faults)
			} else if i := prog.FileIndex(f.Name); emission.PerPeriod(i) != prog.PerPeriod(i) {
				t.Fatalf("channel %d reclaims for %q, whose first home is channel %d", ch, f.Name, homes[f.Name][0])
			} else {
				replicas++
			}
		}
		minWidth = max(minWidth, want[ch][2])
	}
	if replicas == 0 {
		t.Fatal("no channel carries a file behind another: the per-channel bounds are not exercised")
	}

	sigs := make(chan os.Signal, 1)
	outR, outW := io.Pipe()
	exited := make(chan error, 1)
	go func() {
		err := serve(cfg, sigs, outW)
		outW.Close()
		exited <- err
	}()
	opsURL, minCycle, reclaimLines := "", 1<<30, 0
	sc := bufio.NewScanner(outR)
	for reclaimLines < cfg.Channels && sc.Scan() {
		var ch, bandwidth, cycle, reclaimed, idle int
		var addr string
		var served, scheduled float64
		if n, _ := fmt.Sscanf(sc.Text(), "data channel %d listening on %s (bandwidth %d, data cycle %d)", &ch, &addr, &bandwidth, &cycle); n == 4 {
			minCycle = min(minCycle, cycle)
		} else if url, ok := strings.CutPrefix(sc.Text(), "ops listening on "); ok {
			opsURL = url
		} else if n, _ := fmt.Sscanf(sc.Text(), "channel %d reclaims %d of %d idle slots per period: expected retrieval %f of the window, %f on the program alone",
			&ch, &reclaimed, &idle, &served, &scheduled); n == 5 {
			if opsURL == "" || ch != reclaimLines {
				t.Fatalf("%q printed out of order: it follows the listener lines, channel by channel", sc.Text())
			}
			if reclaimed <= 0 || reclaimed != want[ch][0] || idle != want[ch][1] || idle-reclaimed >= want[ch][2] {
				t.Fatalf("%q: want %d of %d, all but fewer than %d", sc.Text(), want[ch][0], want[ch][1], want[ch][2])
			}
			st := cl.Station(ch)
			e, p := expectedShare(st.Emission(), st), expectedShare(st.Program(), st)
			if e >= p || fmt.Sprintf("%.2f %.2f", served, scheduled) != fmt.Sprintf("%.2f %.2f", e, p) {
				t.Fatalf("%q: the rebuilt cluster expects %.4f of the window on the emission and %.4f on the program alone", sc.Text(), e, p)
			}
			reclaimLines++
		}
	}
	if reclaimLines < cfg.Channels {
		t.Fatalf("daemon printed %d of %d reclaim lines", reclaimLines, cfg.Channels)
	}
	go io.Copy(io.Discard, outR) // the drain messages must not block the daemon

	// The registry is the process's: read the daemon's share as deltas.
	counters := func() (slots, idle, reclaimed float64) {
		return scrape(t, opsURL, "pin_station_slots_total"), scrape(t, opsURL, "pin_station_idle_slots_total"),
			scrape(t, opsURL, "pin_station_reclaimed_slots_total")
	}
	slots0, idle0, reclaimed0 := counters()
	var slots, idle, reclaimed float64
	for i := 0; i < 500 && slots < float64(8*minCycle); i++ {
		time.Sleep(10 * time.Millisecond)
		slots1, idle1, reclaimed1 := counters()
		slots, idle, reclaimed = slots1-slots0, idle1-idle0, reclaimed1-reclaimed0
	}
	if reclaimed <= 0 {
		t.Errorf("no reclaimed slot among %v emitted", slots)
	}
	// A data cycle is a whole number of periods, so at most minWidth-1
	// slots per cycle go out empty; the two scrapes cut each channel's
	// stream mid-period, hence the extra cycle per channel and end.
	if bound := float64(minWidth-1) * (slots/float64(minCycle) + float64(2*cfg.Channels)); idle > bound {
		t.Errorf("%v of %v slots went out empty, the reclaim tables allow %v", idle, slots, bound)
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon failed after SIGTERM: %v", err)
		}
	case <-time.After(cfg.Timeout + 5*time.Second):
		t.Fatal("daemon did not drain within the deadline")
	}
}
