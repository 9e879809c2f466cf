// Command bdiskgen builds a fault-tolerant real-time broadcast program
// from a JSON specification and prints the program, its bandwidth
// sizing and per-file guarantees.
//
// Usage:
//
//	bdiskgen -spec files.json [-bandwidth 0] [-layout pinwheel] [-scheduler sx,edf] [-out prog.json]
//
// -layout and -scheduler take registered names (the flag help lists
// them); an unknown name, like an invalid spec, exits with status 2.
//
// Specification format (latency in time units; faults optional):
//
//	{
//	  "files": [
//	    {"name": "traffic", "blocks": 4, "latency": 8, "faults": 1},
//	    {"name": "map",     "blocks": 8, "latency": 40}
//	  ]
//	}
//
// A §4 spec instead lists latency vectors d⃗ in slots, so its files are
// built at bandwidth 1; -bandwidth or a layout but pinwheel with it, a
// spec with both keys, or a key not named here exits with status 2:
//
//	{"generalized": [{"name": "A", "blocks": 2, "latencies": [8, 10]}]}
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"pinbcast"
)

type spec struct {
	Files []struct {
		Name    string `json:"name"`
		Blocks  int    `json:"blocks"`
		Latency int    `json:"latency"`
		Faults  int    `json:"faults"`
		Width   int    `json:"width"`
	} `json:"files"`
	Generalized []struct {
		Name      string `json:"name"`
		Blocks    int    `json:"blocks"`
		Latencies []int  `json:"latencies"`
	} `json:"generalized"`
}

func main() {
	specPath := flag.String("spec", "", "path to the JSON specification")
	bandwidth := flag.Int("bandwidth", 0, "bandwidth in blocks per time unit (0 = Equation 1/2)")
	out := flag.String("out", "", "write the constructed program as JSON to this path")
	scheduler := flag.String("scheduler", "",
		"comma-separated scheduler chain (default: the portfolio; registered: "+
			strings.Join(pinbcast.SchedulerNames(), ", ")+")")
	layoutName := flag.String("layout", "",
		"construction layout (default: pinwheel; registered: "+
			strings.Join(pinbcast.LayoutNames(), ", ")+")")
	flag.Parse()
	outPath = *out
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "bdiskgen: -spec is required")
		os.Exit(2)
	}
	cfg := pinbcast.BuildConfig{Bandwidth: *bandwidth, Layout: strings.ToLower(strings.TrimSpace(*layoutName))}
	if *scheduler != "" {
		for _, name := range strings.Split(*scheduler, ",") {
			cfg.Schedulers = append(cfg.Schedulers, strings.ToLower(strings.TrimSpace(name)))
		}
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdiskgen:", err)
		os.Exit(1)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields() // a misspelt key would drop its value
	if err := dec.Decode(&s); err != nil {
		fail(fmt.Errorf("parsing spec: %w: %w", err, pinbcast.ErrBadSpec))
	}
	fail(runRegular(s, cfg))
}

// fail reports a construction error with its typed-error class and
// exits; nil is a no-op.
func fail(err error) {
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, pinbcast.ErrBadSpec):
		fmt.Fprintln(os.Stderr, "bdiskgen: invalid specification:", err)
		os.Exit(2)
	case errors.Is(err, pinbcast.ErrBandwidth):
		fmt.Fprintln(os.Stderr, "bdiskgen: bandwidth too low:", err)
		os.Exit(1)
	case errors.Is(err, pinbcast.ErrInfeasible):
		fmt.Fprintln(os.Stderr, "bdiskgen: infeasible:", err)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "bdiskgen:", err)
		os.Exit(1)
	}
}

// runRegular builds the spec's files under cfg, the -bandwidth, -layout
// and -scheduler flags, and reports the program. A §4 file is one at
// bandwidth 1 with its last level as Latency, and gets no Eq-1/2 sizing.
func runRegular(s spec, cfg pinbcast.BuildConfig) error {
	var files []pinbcast.FileSpec
	for _, f := range s.Files {
		files = append(files, pinbcast.FileSpec{
			Name: f.Name, Blocks: f.Blocks, Latency: f.Latency,
			Faults: f.Faults, DispersalWidth: f.Width,
		})
	}
	for _, g := range s.Generalized {
		f := pinbcast.FileSpec{Name: g.Name, Blocks: g.Blocks, Faults: len(g.Latencies) - 1, Latencies: g.Latencies}
		if f.Faults >= 0 {
			f.Latency = g.Latencies[f.Faults]
		}
		files = append(files, f)
	}
	generalized := len(s.Generalized) > 0
	switch {
	case generalized && len(s.Files) > 0:
		return fmt.Errorf("spec lists files in time units and generalized files in slots; give one kind: %w", pinbcast.ErrBadSpec)
	case generalized && cfg.Bandwidth != 0:
		return fmt.Errorf("a generalized spec counts latencies in slots, at bandwidth 1: it takes no -bandwidth: %w", pinbcast.ErrBadSpec)
	case generalized:
		cfg.Bandwidth = 1
	case cfg.Bandwidth == 0:
		cfg.Bandwidth = pinbcast.SufficientBandwidth(files)
	}
	cfg.Files = files
	p, err := pinbcast.Build(cfg)
	if errors.Is(err, pinbcast.ErrBadSpec) {
		return err // an invalid file or name: no report
	}
	fmt.Printf("files:                %d\n", len(files))
	fmt.Printf("layout:               %s\n", cmp.Or(cfg.Layout, pinbcast.LayoutPinwheel))
	if !generalized {
		// A too-low bandwidth still gets the sizing: Eq-1/2 is the fix.
		necessary, sufficient := pinbcast.NecessaryBandwidth(files), pinbcast.SufficientBandwidth(files)
		fmt.Printf("necessary bandwidth:  %.4f blocks/unit\n", necessary)
		fmt.Printf("Eq-1/2 bandwidth:     %d blocks/unit (overhead %.1f%%)\n",
			sufficient, 100*(float64(sufficient)/necessary-1))
		fmt.Printf("chosen bandwidth:     %d blocks/unit\n", cfg.Bandwidth)
	}
	if err != nil {
		return err
	}
	if err := writeProgram(p); err != nil {
		return err
	}
	fmt.Printf("program period:       %d slots (%s)\n", p.Period, p.Origin)
	fmt.Printf("program data cycle:   %d slots\n", p.DataCycle())
	fmt.Printf("utilization:          %.1f%%\n", 100*utilization(p))
	for _, f := range files {
		// Layouts may reorder the program's file table (tiering groups
		// by frequency), so resolve each spec by name.
		i := p.FileIndex(f.Name)
		if i < 0 {
			return fmt.Errorf("bdiskgen: file %q missing from program", f.Name)
		}
		switch {
		case f.Latencies != nil:
			// A §4 file: its worst retrieval with j faults, each within d⁽ʲ⁾.
			worst := make([]int, len(f.Latencies))
			for j := range worst {
				if worst[j], err = p.WorstLatency(i, j); err != nil {
					return err
				}
			}
			fmt.Printf("  %-12s m=%d d⃗=%v worst=%v slots/period=%d δ=%d\n",
				f.Name, f.Blocks, f.Latencies, worst, p.PerPeriod(i), p.MaxGap(i))
		case p.Bandwidth > 0:
			// The pinwheel construction certifies the window guarantee.
			fmt.Printf("  %-12s m=%d r=%d window=%d slots/period=%d δ=%d\n",
				f.Name, f.Blocks, f.Faults, cfg.Bandwidth*f.Latency, p.PerPeriod(i), p.MaxGap(i))
		default:
			// Other layouts bound nothing: report the measured profile
			// against the window the pinwheel layout would have guaranteed.
			mean, worst := p.LatencyProfile(i)
			fmt.Printf("  %-12s m=%d r=%d mean=%.1f worst=%d (vs window %d) slots/period=%d δ=%d\n",
				f.Name, f.Blocks, f.Faults, mean, worst, cfg.Bandwidth*f.Latency, p.PerPeriod(i), p.MaxGap(i))
		}
	}
	if p.Period <= 64 {
		fmt.Printf("program:              %s\n", p)
	}
	return nil
}

// outPath is the -out flag; empty means no program file is written.
var outPath string

// writeProgram serializes the program to outPath when set.
func writeProgram(p *pinbcast.Program) error {
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("program written:      %s (%d bytes)\n", outPath, len(data))
	return nil
}

func utilization(p *pinbcast.Program) float64 {
	busy := 0
	for _, v := range p.Slots {
		if v != pinbcast.Idle {
			busy++
		}
	}
	return float64(busy) / float64(p.Period)
}
