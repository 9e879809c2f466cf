package pinbcast

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain runs the package's tests and benchmarks, then fails the run
// if any goroutine other than its own still has a frame in this
// package 2 s after the last of them: nothing a test started — a
// serve loop, a fan-out writer, a tuner's channel driver — may outlive
// the Close or cancel that ends it.
func TestMain(m *testing.M) {
	code := m.Run()
	if left := lingering(2 * time.Second); left != "" {
		fmt.Fprintf(os.Stderr, "goroutines left in package pinbcast after the tests:\n\n%s", left)
		code = 1
	}
	os.Exit(code)
}

// lingering re-reads every goroutine's stack each millisecond until
// none but the caller's has a pinbcast. frame, or until wait has
// passed, and returns the stacks of those left.
func lingering(wait time.Duration) string {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(wait)
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		var left []byte
		// The caller's own goroutine comes first; goroutines are
		// separated by blank lines, and a frame's function starts its
		// line (a "created by" line names a spawner, not a frame).
		for _, g := range bytes.Split(buf[:n], []byte("\n\n"))[1:] {
			if bytes.Contains(g, []byte("\npinbcast.")) {
				left = append(append(left, g...), "\n\n"...)
			}
		}
		if left == nil {
			return ""
		}
		select {
		case <-deadline:
			return string(left)
		case <-tick.C:
		}
	}
}
