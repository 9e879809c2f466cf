// Command bdiskgen builds a fault-tolerant real-time broadcast program
// from a JSON specification and prints the program, its bandwidth
// sizing and per-file guarantees.
//
// Usage:
//
//	bdiskgen -spec files.json [-bandwidth 0] [-layout pinwheel] [-scheduler sx,edf] [-out prog.json]
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
// With -generalized the spec instead lists latency vectors in slots:
//
//	{"generalized": [{"name": "A", "blocks": 2, "latencies": [8, 10]}]}
package main

import (
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
	if *layoutName != "" {
		l, ok := pinbcast.LookupLayout(strings.ToLower(strings.TrimSpace(*layoutName)))
		if !ok {
			fmt.Fprintf(os.Stderr, "bdiskgen: unknown layout %q (registered: %s)\n",
				*layoutName, strings.Join(pinbcast.LayoutNames(), ", "))
			os.Exit(2)
		}
		layout = l
	}
	if *scheduler != "" {
		for _, name := range strings.Split(*scheduler, ",") {
			s, ok := pinbcast.LookupScheduler(strings.ToLower(strings.TrimSpace(name)))
			if !ok {
				fmt.Fprintf(os.Stderr, "bdiskgen: unknown scheduler %q (registered: %s)\n",
					name, strings.Join(pinbcast.SchedulerNames(), ", "))
				os.Exit(2)
			}
			chain = append(chain, s)
		}
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdiskgen:", err)
		os.Exit(1)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		fmt.Fprintln(os.Stderr, "bdiskgen: parsing spec:", err)
		os.Exit(1)
	}

	switch {
	case len(s.Generalized) > 0:
		fail(runGeneralized(s))
	case len(s.Files) > 0:
		fail(runRegular(s, *bandwidth))
	default:
		fmt.Fprintln(os.Stderr, "bdiskgen: spec lists no files")
		os.Exit(1)
	}
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

// chain is the -scheduler flag; nil means the portfolio.
var chain []pinbcast.Scheduler

// layout is the -layout flag; nil means the pinwheel construction.
var layout pinbcast.Layout

func runRegular(s spec, bandwidth int) error {
	files := make([]pinbcast.FileSpec, len(s.Files))
	for i, f := range s.Files {
		files[i] = pinbcast.FileSpec{
			Name: f.Name, Blocks: f.Blocks, Latency: f.Latency,
			Faults: f.Faults, DispersalWidth: f.Width,
		}
	}
	// Print the sizing diagnostics before building: when the chosen
	// bandwidth turns out too low, the Eq-1/2 figure is the fix.
	necessary := pinbcast.NecessaryBandwidth(files)
	sufficient := pinbcast.SufficientBandwidth(files)
	if bandwidth == 0 {
		bandwidth = sufficient
	}
	layoutLabel := pinbcast.LayoutPinwheel
	if layout != nil {
		layoutLabel = layout.Name()
	}
	fmt.Printf("files:                %d\n", len(files))
	fmt.Printf("layout:               %s\n", layoutLabel)
	fmt.Printf("necessary bandwidth:  %.4f blocks/unit\n", necessary)
	fmt.Printf("Eq-1/2 bandwidth:     %d blocks/unit (overhead %.1f%%)\n",
		sufficient, 100*(float64(sufficient)/necessary-1))
	fmt.Printf("chosen bandwidth:     %d blocks/unit\n", bandwidth)
	p, err := pinbcast.Build(pinbcast.BuildConfig{
		Files:      files,
		Bandwidth:  bandwidth,
		Schedulers: chain,
		Layout:     layout,
	})
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
		if p.Bandwidth > 0 {
			// The pinwheel construction certifies the window guarantee.
			fmt.Printf("  %-12s m=%d r=%d window=%d slots/period=%d δ=%d\n",
				f.Name, f.Blocks, f.Faults, bandwidth*f.Latency, p.PerPeriod(i), p.MaxGap(i))
			continue
		}
		// Other layouts bound nothing: report the measured profile
		// against the window the pinwheel layout would have guaranteed.
		mean, worst := p.LatencyProfile(i)
		fmt.Printf("  %-12s m=%d r=%d mean=%.1f worst=%d (vs window %d) slots/period=%d δ=%d\n",
			f.Name, f.Blocks, f.Faults, mean, worst, bandwidth*f.Latency, p.PerPeriod(i), p.MaxGap(i))
	}
	if p.Period <= 64 {
		fmt.Printf("program:              %s\n", p)
	}
	return nil
}

func runGeneralized(s spec) error {
	files := make([]pinbcast.GenFileSpec, len(s.Generalized))
	for i, f := range s.Generalized {
		files[i] = pinbcast.GenFileSpec{Name: f.Name, Blocks: f.Blocks, Latencies: f.Latencies}
	}
	res, err := pinbcast.BuildGeneralizedProgram(files)
	if err != nil {
		return err
	}
	fmt.Printf("files:             %d\n", len(files))
	fmt.Printf("nice conjunct:     %s\n", res.Conjunct)
	fmt.Printf("conjunct density:  %.4f\n", res.Conjunct.Density())
	fmt.Printf("program period:    %d slots (%s)\n", res.Program.Period, res.Program.Origin)
	for i, f := range files {
		fmt.Printf("  %-12s m=%d d⃗=%v slots/period=%d δ=%d\n",
			f.Name, f.Blocks, f.Latencies, res.Program.PerPeriod(i), res.Program.MaxGap(i))
	}
	if res.Program.Period <= 64 {
		fmt.Printf("program:           %s\n", res.Program)
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
