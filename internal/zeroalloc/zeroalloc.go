// Package zeroalloc is how a benchmark documented as allocation-free
// holds itself to it: no baseline file, no output parser.
package zeroalloc

import (
	"runtime"
	"testing"
)

// minN is the iteration count below which the check stays silent. The
// testing package sizes a benchmark by running it at N = 1, 100, …
// first, and a loop that is allocation-free once warm still pays for
// the warming — a few hundred allocations on the batch codec and the
// tuner's pools — which only a longer run divides away.
const minN = 500

// Start turns on allocation reporting, resets b's timer and returns the
// check to call when the measured loop ends. The check stops the timer
// and fails b when the process made b.N or more heap allocations
// meanwhile — a non-zero integer mallocs/N, the allocs/op that
// -benchmem prints — provided b.N reached minN.
func Start(b *testing.B) (check func()) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	return func() {
		b.StopTimer()
		runtime.ReadMemStats(&after)
		if per := (after.Mallocs - before.Mallocs) / uint64(b.N); per > 0 && b.N >= minN {
			b.Fatalf("%d allocs/op over %d iterations of a loop documented as allocation-free", per, b.N)
		}
	}
}
