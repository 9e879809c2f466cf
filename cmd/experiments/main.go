// Command experiments regenerates every table and figure of the paper
// (exp.All is the experiment index) and prints them to stdout; README
// "Mapping the API to the paper" names the sections they come from.
//
// Usage:
//
//	experiments [-only E3]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pinbcast"
	"pinbcast/internal/exp"
)

func main() {
	only := flag.String("only", "", "run only the experiment with this ID (e.g. E3)")
	flag.Parse()
	os.Exit(run(*only, os.Stdout, os.Stderr))
}

// run regenerates the experiments and prints those matching only (all
// when empty) to out, reporting errors on errw. It returns the process
// exit code.
func run(only string, out, errw io.Writer) int {
	tables, err := exp.All()
	if err != nil {
		if errors.Is(err, pinbcast.ErrInfeasible) || errors.Is(err, pinbcast.ErrBadSpec) {
			fmt.Fprintln(errw, "experiments: internal error: paper instance rejected:", err)
		} else {
			fmt.Fprintln(errw, "experiments:", err)
		}
		return 1
	}
	printed := 0
	var ids []string
	for _, t := range tables {
		ids = append(ids, t.ID)
		if only != "" && t.ID != only {
			continue
		}
		t.Fprint(out)
		printed++
	}
	if printed == 0 {
		fmt.Fprintf(errw, "experiments: no experiment %q (have %v)\n", only, ids)
		return 1
	}
	return 0
}
