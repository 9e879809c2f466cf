// Command bdload is the repository's benchmark: four named workloads
// that drive the whole slot path — schedule solve → program build → IDA
// encode → serve loop → Pump → fan-out → wire → frame read → client
// decode → reconstruct — from outside, verify every retrieved byte
// against the generated contents and every latency against its window
// B·Tᵢ, and report end-to-end and per-layer metrics by name.
//
//	go run . -seed 1                      all four workloads, untraced then traced
//	go run . -check                       the full set twice, compared against the bounds
//	go run . -workload lossy-bulk -seed 3 -seconds 20 -trace 0
//
// (run from cmd/bdload; the package is its own module so that the
// benchmark builds without touching the repository's build file). The
// last form is what BENCHMARK.json's command runs through bench.sh; its
// final line of output is the result object. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"pinbcast/internal/gf256"
)

// hardTimeout bounds one workload run beyond its measured seconds:
// set-ups, warm-up, tear-down and isolated timings fit many times over.
const hardTimeout = 150 * time.Second

func main() {
	os.Exit(mainRun(os.Args[1:], os.Stdout, os.Stderr))
}

func mainRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bdload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one workload (fanout-steady, lossy-bulk, admit-churn, daemon-paced); empty runs all four")
	seed := fs.Int64("seed", 1, "workload seed: file contents, request order, reception faults")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	check := fs.Bool("check", false, "run the full set twice and compare every end-to-end metric against its bound")
	out := fs.String("out", "bdload-out", "directory for traces and generated configs")
	bdserved := fs.String("bdserved", "", "path of a built bdserved binary (default: built into -out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bdload [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-check] [-out DIR]")
		return 2
	}
	if *workloadName == "" {
		return runAll(*seed, *seconds, *check, *out, *bdserved, stdout, stderr)
	}
	s, ok := findSpec(*workloadName)
	if !ok {
		fmt.Fprintf(stderr, "bdload: unknown workload %q\n", *workloadName)
		return 2
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bdload:", err)
		return 1
	}
	r := &run{spec: s, seed: *seed, env: environment{bdserved: *bdserved, workDir: *out}}
	if s.name == "daemon-paced" && r.env.bdserved == "" {
		bin, err := buildDaemon(*out, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bdload:", err)
			return 1
		}
		r.env.bdserved = bin
	}
	measure := time.Duration(*seconds * float64(time.Second))

	// One hard timeout per workload: whatever is wedged, the process —
	// and with it every goroutine — ends, leaving the stacks that show
	// what was stuck; the bdserved child is set to die with its parent.
	watchdog := time.AfterFunc(measure+hardTimeout, func() {
		fmt.Fprintf(stderr, "bdload: workload %s exceeded its hard timeout\n", s.name)
		pprof.Lookup("goroutine").WriteTo(stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()

	printHeader(stdout, s, *seed, measure, *trace == 1)
	var (
		m    metricSet
		v    verdict
		err  error
		defs = endToEnd
	)
	if *trace == 1 {
		defs = perLayer
		m, v, err = measureLayers(r, measure, *out, stdout)
	} else {
		m, v, err = measureEndToEnd(r, measure)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bdload: %s: %v\n", s.name, err)
		return 1
	}
	printMetrics(stdout, defs, m)
	if *trace == 0 {
		fmt.Fprintln(stdout, "  wall-clock rates, which follow the host and carry no bound (per-layer, in the traced run's result):")
		printMetrics(stdout, pick(perLayer, rateNames), m)
	}
	if n := m["contract_ratio_p95"].n; *trace == 0 {
		if p, ok := tailPercentile(n); !ok || p < 95 {
			fmt.Fprintf(stdout, "note: %d retrievals leave fewer than ten beyond p95; the highest percentile they support is p%g\n", n, p)
		}
	}
	if *trace == 1 {
		if u := m["budget.unexplained_ratio"].value; u > 0.25 || u < -0.25 {
			fmt.Fprintf(stdout, "finding: isolated layer costs leave %.0f%% of cpu per slot unexplained on %s\n", u*100, s.name)
		}
	}
	fmt.Fprintf(stdout, "verification: %d retrievals, %d failed", v.attempted, v.failed)
	for _, reason := range slices.Sorted(maps.Keys(v.reasons)) {
		fmt.Fprintf(stdout, ", %s=%d", reason, v.reasons[reason])
	}
	fmt.Fprintln(stdout)
	res, err := newResult(defs, m, max(v.attempted, 1), v.failed, v.correct)
	if err == nil {
		err = writeResult(stdout, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bdload:", err)
		return 1
	}
	if !v.correct {
		return 1
	}
	return 0
}

// printHeader states the conditions a number was measured under, so it
// is never read without them.
func printHeader(w io.Writer, s spec, seed int64, measure time.Duration, traced bool) {
	mode := "untraced (end-to-end)"
	if traced {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(w, "bdload %s: %s\n", s.name, mode)
	fmt.Fprintf(w, "  why: %s\n", s.why)
	fmt.Fprintf(w, "  commit %s, %s, nproc %d, GOMAXPROCS %d, cpu %q, gf256 kernel %s\n",
		gitCommit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), gf256.Kernel())
	pace := "consumer-paced"
	if s.interval > 0 {
		pace = "paced at " + s.interval.String() + " per slot"
	}
	fmt.Fprintf(w, "  seed %d (catalogue shape seed %d), %s measured, loopback only — not a real link\n",
		seed, catalogueSeed, measure)
	fmt.Fprintf(w, "  %d files of ≤%d blocks × %d B, r=%d, loss %.0f%%, %d closed-loop receiver(s), %s\n",
		s.files, s.maxBlocks, s.blockSize, s.faults, s.loss*100, s.receivers, pace)
}

// repoRoot finds the directory of the pinbcast module by walking up
// from the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module pinbcast\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the pinbcast repository (no go.mod declaring module pinbcast above the working directory)")
		}
		dir = parent
	}
}

// gitCommit returns the checked-out commit, or "unknown" outside a git
// work tree (the benchmark driver's checkout is not one).
func gitCommit() string {
	root, err := repoRoot()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// buildDaemon builds cmd/bdserved into dir, before anything is timed.
func buildDaemon(dir string, stderr io.Writer) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "bdserved"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bdserved")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building bdserved: %w", err)
	}
	return bin, nil
}

// runOne re-executes bdload for one workload and mode, relays its
// output, and returns the parsed result line. Each run gets a process
// of its own: a fresh obs registry, a fresh VmHWM, nothing alive from
// the workload before.
func runOne(name string, seed int64, seconds float64, trace int, out, bdserved string, stdout, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", out,
	}
	if bdserved != "" {
		args = append(args, "-bdserved", bdserved)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		return result{}, fmt.Errorf("%s: no result line (%v)", name, errors.Join(err, waitErr))
	}
	if waitErr != nil {
		return res, fmt.Errorf("%s: verification failed (%v)", name, waitErr)
	}
	return res, nil
}

// runAll runs every workload untraced and traced — twice over when
// checking — and reports whether everything verified (and, when
// checking, repeated within bounds).
func runAll(seed int64, seconds float64, check bool, out, bdserved string, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bdload:", err)
		return 1
	}
	if bdserved == "" {
		bin, err := buildDaemon(out, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bdload:", err)
			return 1
		}
		bdserved = bin
	}
	sets := 1
	if check {
		sets = 2
	}
	// ends[set][workload] is the end-to-end result of one run.
	ends := make([]map[string]result, sets)
	failed := false
	for set := range ends {
		ends[set] = map[string]result{}
		for _, s := range specs {
			for trace := 0; trace <= 1; trace++ {
				res, err := runOne(s.name, seed, seconds, trace, out, bdserved, stdout, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bdload:", err)
					failed = true
				}
				if trace == 0 {
					ends[set][s.name] = res
				}
				fmt.Fprintln(stdout)
			}
		}
	}
	if check && !compareSets(stdout, ends[0], ends[1]) {
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// compareSets prints, per end-to-end metric and workload, both sets'
// values, how much worse the second is than the first, and whether that
// is inside the metric's own bound.
func compareSets(w io.Writer, first, second map[string]result) bool {
	pass := true
	fmt.Fprintf(w, "%-26s %-14s %14s %14s %9s %7s  %s\n", "metric", "workload", "first", "second", "worse by", "bound", "")
	for _, d := range endToEnd {
		for _, s := range specs {
			a, b := first[s.name].Metrics[d.Name].Value, second[s.name].Metrics[d.Name].Value
			verdict := "PASS"
			if a == 0 || b == 0 || !withinBound(d.Better, d.Bound, a, b) {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "%-26s %-14s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n",
				d.Name, s.name, a, b, worseBy(d.Better, a, b)*100, d.Bound*100, verdict)
		}
	}
	return pass
}
