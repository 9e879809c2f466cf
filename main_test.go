package pinbcast

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain runs the package's tests and benchmarks, then fails the run
// if any goroutine other than its own still has a frame in a package of
// this module 2 s after the last of them: nothing a test started — a
// serve loop, a fan-out writer, a tuner's channel driver — may outlive
// the Close or cancel that ends it.
func TestMain(m *testing.M) {
	code := m.Run()
	if left := lingering(2 * time.Second); left != "" {
		fmt.Fprintf(os.Stderr, "goroutines left in module pinbcast after the tests:\n\n%s", left)
		code = 1
	}
	os.Exit(code)
}

// lingering re-reads every goroutine's stack each millisecond until
// none but the caller's has a frame of the module — pinbcast.… or
// pinbcast/….… — or until wait has passed, and returns the stacks of
// those left.
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
			if bytes.Contains(g, []byte("\npinbcast.")) || bytes.Contains(g, []byte("\npinbcast/")) {
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

// TestLingeringSeesModuleFrames: the leak check sees goroutines of the
// module's internal packages too — an open Fanout's accept loop and a
// subscriber's writer, both in internal/transport — and none of them
// once the Fanout is closed.
func TestLingeringSeesModuleFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fan := NewFanout(ln, 0)
	src, err := DialSource(fan.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for fan.ClientCount() == 0 {
		time.Sleep(time.Millisecond) // the accept loop registers the subscriber
	}
	open := lingering(10 * time.Millisecond)
	for _, frame := range []string{"transport.(*Fanout).acceptLoop", "transport.(*Fanout).writeLoop"} {
		if !strings.Contains(open, frame) {
			t.Fatalf("an open Fanout's %s is not reported:\n%s", frame, open)
		}
	}
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}
	// The test's caller, TestMain, has a frame of the module too: each
	// look waits 10 ms for what is left, until no Fanout frame is.
	deadline := time.Now().Add(2 * time.Second)
	for left := lingering(10 * time.Millisecond); strings.Contains(left, "(*Fanout)"); left = lingering(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a closed Fanout's goroutines are still reported after 2 s:\n%s", left)
		}
	}
}
