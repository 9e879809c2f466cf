package client

import (
	"math/rand"
	"testing"

	"pinbcast/internal/ida"
	"pinbcast/internal/zeroalloc"
)

// BenchmarkHandOver measures the pooled path a multi-channel tuner runs
// for a file replicated on two channels, at bdload lossy-bulk's block
// size: two clients hear the disjoint block ranges of the file's two
// homes in turn, and after each block one stores the other hands over
// what it holds, as the tuner's pooled rule does. One op is one
// retrieval of an eight-block file; the bytes counted are the file's.
func BenchmarkHandOver(b *testing.B) {
	const m, width, l = 8, 10, 64 << 10
	data := make([]byte, m*l)
	rand.New(rand.NewSource(1)).Read(data)
	blocks, err := ida.DisperseFile(1, data, m, 2*width)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([][]byte, len(blocks))
	for i, blk := range blocks {
		frames[i] = blk.MarshalInto(nil)
	}
	names := map[uint32]string{1: "F"}
	homes := [2]*Client{NewSubscriber(names), NewSubscriber(names)}
	var moved []*ida.Block
	var results []Result
	now := 0
	b.SetBytes(m * l)
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		homes[0].Add(Request{File: "F"})
		homes[1].Add(Request{File: "F"})
		for k := 0; ; k++ {
			c, other := homes[k%2], homes[1-k%2]
			now++
			done := c.Observe(now, frames[k%2*width+k/2]) == Completed
			if !done {
				moved = other.Yield("F", moved[:0])
				done = c.Take("F", moved)
				clear(moved)
			}
			if done {
				other.Cancel("F")
				results = c.TakeResults(results[:0])
				if len(results) != 1 || !results[0].Completed {
					b.Fatalf("retrieval %d: %+v", i, results)
				}
				c.Recycle(results[0].Data)
				break
			}
		}
		moved = homes[0].Settle(homes[1].Settle(moved[:0]))
	}
	check()
}
