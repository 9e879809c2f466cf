// Command pinsched schedules a pinwheel task system given as a/b pairs
// and prints the verified schedule. -scheduler takes a registered name
// (the flag help lists them); an unknown one exits with status 2.
//
// Usage:
//
//	pinsched 1/2 1/3
//	pinsched -scheduler sa 1/4 2/8
//
// Each argument a/b is a task requiring at least a slots of every b
// consecutive slots.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pinbcast"
	"pinbcast/internal/pinwheel"
)

func main() {
	scheduler := flag.String("scheduler", pinbcast.SchedulerPortfolio,
		"scheduler to use (registered: "+strings.Join(pinbcast.SchedulerNames(), ", ")+")")
	flag.Parse()

	sys, err := parseTasks(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pinsched:", err)
		fmt.Fprintln(os.Stderr, "usage: pinsched [-scheduler name] a/b [a/b ...]")
		os.Exit(2)
	}
	chain, err := pinwheel.Named(strings.ToLower(*scheduler))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pinsched: %v (registered: %s)\n", err, strings.Join(pinbcast.SchedulerNames(), ", "))
		os.Exit(2)
	}

	fmt.Printf("system:  %s\n", sys)
	fmt.Printf("density: %.4f (Chan–Chin 7/10 test: %v)\n", sys.Density(), pinbcast.DensityTestCC(sys))
	sch, err := pinwheel.Solve(sys, chain) // verifies the schedule it returns
	if err != nil {
		if errors.Is(err, pinbcast.ErrInfeasible) {
			fmt.Println("result:  infeasible (proved)")
			return
		}
		fmt.Fprintln(os.Stderr, "pinsched:", err)
		os.Exit(1)
	}
	fmt.Printf("result:  schedulable by %s, period %d\n", sch.Origin, sch.Period)
	fmt.Printf("schedule: %s\n", sch)
	for i := range sys {
		fmt.Printf("  task %d %s: %d grants/period, max gap %d\n",
			i+1, sys[i], sch.GrantCount(i), sch.MaxGap(i))
	}
}

func parseTasks(args []string) (pinbcast.TaskSystem, error) {
	if len(args) == 0 {
		return nil, errors.New("no tasks given")
	}
	sys := make(pinbcast.TaskSystem, 0, len(args))
	for _, arg := range args {
		parts := strings.Split(arg, "/")
		if len(parts) != 2 {
			return nil, fmt.Errorf("task %q is not of the form a/b", arg)
		}
		a, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("task %q: %w", arg, err)
		}
		b, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("task %q: %w", arg, err)
		}
		sys = append(sys, pinbcast.Task{A: a, B: b})
	}
	return sys, sys.Validate()
}
