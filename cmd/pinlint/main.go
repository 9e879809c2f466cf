// Command pinlint runs the codebase's custom static analyzer suite
// (internal/analyzers) over the given packages:
//
//	go run ./cmd/pinlint ./...
//
// It mechanically enforces the invariants the benchmarks and reviews
// established by convention: zero-allocation hot paths (hotpath: the
// compiler's escape analysis over every //pinlint:hotpath function,
// closed over the call graph), injected randomness (norand),
// mutex-guarded field access (lockcheck), deadlock-free lock ordering
// (lockorder), stoppable goroutines (goroleak), mutation only at
// data-cycle boundaries (cycleboundary), typed sentinel wrapping with
// %w / errors.Is (errwrap), the channel close/ownership protocol
// (chansafe), cancellation gates on blocking operations reachable from
// long-running entry points (cancelflow), checked schedule-quantity
// arithmetic (slotmath), and justified, live //pinlint:allow waivers
// (waiverlint).
//
// Diagnostics are printed one per line as file:line:col: analyzer:
// message, the form .github/pinlint-problem-matcher.json turns into PR
// annotations. Flags: -list prints the analyzer inventory; -waivers
// prints the //pinlint:allow waiver inventory (file, line, analyzers,
// and justification — the suppression debt, kept honest by waiverlint).
//
// Exit status: 0 when clean, 1 when any diagnostic is reported, 2 on
// usage or load errors. CI runs pinlint as a required lint step.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pinbcast/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("pinlint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list the analyzers and exit")
	waivers := flags.Bool("waivers", false, "print the //pinlint:allow waiver inventory and exit")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: pinlint [-list] [-waivers] [packages]\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers.All() {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "pinlint:", err)
		return 2
	}
	pkgs, index, err := analyzers.Load(wd, flags.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "pinlint:", err)
		return 2
	}
	if *waivers {
		return waiverReport(pkgs, moduleRoot(wd), stdout)
	}
	bad := false
	for _, pkg := range pkgs {
		for _, a := range analyzers.All() {
			diags, err := analyzers.Run(a, pkg, index)
			if err != nil {
				fmt.Fprintln(stderr, "pinlint:", err)
				return 2
			}
			for _, d := range diags {
				bad = true
				fmt.Fprintf(stdout, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// moduleRoot walks up from dir to the directory holding go.mod, so
// report paths are relative to the checkout no matter where pinlint
// runs from. Falls back to dir outside any module.
func moduleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}

// waiverReport prints the //pinlint:allow inventory: every suppression
// in the loaded packages with its analyzers and justification, paths
// relative to root. Always exits 0 — stale or unjustified waivers fail
// the suite itself, via waiverlint.
func waiverReport(pkgs []*analyzers.Package, root string, stdout io.Writer) int {
	n := 0
	for _, pkg := range pkgs {
		for _, w := range analyzers.PackageWaivers(pkg) {
			names := "all"
			if len(w.Analyzers) > 0 {
				names = strings.Join(w.Analyzers, ",")
			}
			just := w.Justification
			if just == "" {
				just = "(no justification)"
			}
			file := w.File
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
			fmt.Fprintf(stdout, "%s:%d: %s — %s\n", file, w.Line, names, just)
			n++
		}
	}
	fmt.Fprintf(stdout, "%d waivers\n", n)
	return 0
}
