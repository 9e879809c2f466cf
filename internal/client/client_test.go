package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pinbcast/internal/ida"
)

// pendingNames returns the names of files with uncompleted requests, in
// the order they were requested.
func pendingNames(c *Client) []string {
	var out []string
	for _, p := range c.open() {
		out = append(out, p.req.File)
	}
	return out
}

func disperse(t *testing.T, id uint32, data []byte, m, n int) []*ida.Block {
	blocks, err := ida.DisperseFile(id, data, m, n)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// tuned returns a subscriber wanting reqs that has tuned in at slot
// start (an idle slot), so latencies count from there.
func tuned(t *testing.T, start int, names map[uint32]string, reqs ...Request) *Client {
	t.Helper()
	c := NewSubscriber(names)
	for _, r := range reqs {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	c.Observe(start, nil)
	return c
}

func TestNewValidation(t *testing.T) {
	c := NewSubscriber(nil)
	if err := c.Add(Request{File: ""}); err == nil {
		t.Fatal("empty file name accepted")
	}
	if err := c.Add(Request{File: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Request{File: "A"}); err == nil {
		t.Fatal("duplicate request accepted")
	}
}

func TestCollectAndReconstruct(t *testing.T) {
	data := []byte("reconstruct me from any three blocks")
	blocks := disperse(t, 1, data, 3, 6)
	c := tuned(t, 0, map[uint32]string{1: "F"}, Request{File: "F", Deadline: 10})
	c.Observe(0, blocks[5].MarshalInto(nil))
	c.Observe(1, nil) // idle slot
	c.Observe(2, blocks[1].MarshalInto(nil))
	if c.Done() {
		t.Fatal("done with only two blocks")
	}
	c.Observe(3, blocks[3].MarshalInto(nil))
	if !c.Done() {
		t.Fatal("not done after three distinct blocks")
	}
	res := c.results
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	r := res[0]
	if !r.Completed || !bytes.Equal(r.Data, data) {
		t.Fatalf("bad result %+v", r)
	}
	if r.Latency != 4 {
		t.Fatalf("latency = %d, want 4", r.Latency)
	}
	if !r.DeadlineMet {
		t.Fatal("deadline 10 reported missed")
	}
}

func TestDuplicateBlocksDoNotComplete(t *testing.T) {
	data := []byte("duplicates should not count")
	blocks := disperse(t, 1, data, 3, 6)
	c := tuned(t, 0, map[uint32]string{1: "F"}, Request{File: "F"})
	c.Observe(0, blocks[0].MarshalInto(nil))
	c.Observe(1, blocks[0].MarshalInto(nil))
	c.Observe(2, blocks[0].MarshalInto(nil))
	if c.Done() {
		t.Fatal("completed from duplicate blocks")
	}
}

func TestCorruptedBlockIgnored(t *testing.T) {
	data := []byte("checksums protect the client")
	blocks := disperse(t, 1, data, 2, 4)
	c := tuned(t, 0, map[uint32]string{1: "F"}, Request{File: "F"})
	raw := blocks[0].MarshalInto(nil)
	raw[len(raw)-1] ^= 0xff
	c.Observe(0, raw)
	if c.Done() {
		t.Fatal("corrupted block advanced the client")
	}
	c.Observe(1, blocks[1].MarshalInto(nil))
	c.Observe(2, blocks[2].MarshalInto(nil))
	if !c.Done() {
		t.Fatal("clean blocks did not complete")
	}
}

func TestBlocksBeforeStartIgnored(t *testing.T) {
	data := []byte("early blocks don't count")
	blocks := disperse(t, 1, data, 2, 4)
	c := tuned(t, 5, map[uint32]string{1: "F"}, Request{File: "F"})
	c.Observe(0, blocks[0].MarshalInto(nil))
	c.Observe(1, blocks[1].MarshalInto(nil))
	if c.Done() {
		t.Fatal("blocks before start counted")
	}
	c.Observe(5, blocks[2].MarshalInto(nil))
	c.Observe(6, blocks[3].MarshalInto(nil))
	if !c.Done() {
		t.Fatal("post-start blocks not counted")
	}
	if r := c.results[0]; r.Latency != 2 {
		t.Fatalf("latency = %d, want 2 (relative to start)", r.Latency)
	}
}

func TestUnknownAndUnwantedFilesIgnored(t *testing.T) {
	wanted := disperse(t, 1, []byte("wanted file"), 2, 4)
	unwanted := disperse(t, 2, []byte("unwanted file"), 2, 4)
	unknown := disperse(t, 9, []byte("unknown id"), 2, 4)
	c := tuned(t, 0, map[uint32]string{1: "F", 2: "G"}, Request{File: "F"})
	c.Observe(0, unwanted[0].MarshalInto(nil))
	c.Observe(1, unknown[0].MarshalInto(nil))
	if c.Done() {
		t.Fatal("unrelated blocks completed the request")
	}
	c.Observe(2, wanted[0].MarshalInto(nil))
	c.Observe(3, wanted[1].MarshalInto(nil))
	if !c.Done() {
		t.Fatal("wanted blocks did not complete")
	}
}

func TestDeadlineMissRecorded(t *testing.T) {
	data := []byte("late delivery")
	blocks := disperse(t, 1, data, 2, 4)
	c := tuned(t, 0, map[uint32]string{1: "F"}, Request{File: "F", Deadline: 2})
	c.Observe(0, blocks[0].MarshalInto(nil))
	c.Observe(7, blocks[1].MarshalInto(nil))
	r := c.results[0]
	if !r.Completed {
		t.Fatal("not completed")
	}
	if r.DeadlineMet {
		t.Fatalf("deadline met with latency %d > 2", r.Latency)
	}
}

func TestFlushIncomplete(t *testing.T) {
	c := tuned(t, 0, map[uint32]string{}, Request{File: "F", Deadline: 4})
	c.NoteCorruption("F")
	res := c.Flush(9)
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	r := res[0]
	if r.Completed {
		t.Fatal("flush reported completion")
	}
	if r.Corrupted != 1 {
		t.Fatalf("corrupted = %d", r.Corrupted)
	}
	if r.Latency != 10 {
		t.Fatalf("latency = %d, want 10", r.Latency)
	}
}

func TestSubscriberDynamicRequests(t *testing.T) {
	fa := disperse(t, 1, []byte("file F, two blocks"), 2, 4)
	ga := disperse(t, 2, []byte("file G"), 1, 2)
	c := NewSubscriber(nil)
	if c.start != -1 {
		t.Fatalf("start = %d before tuning in", c.start)
	}
	if !c.Done() {
		t.Fatal("no requests yet should report done")
	}
	// Directory learned entry by entry, request added before tune-in.
	c.Learn(1, "F")
	if err := c.Add(Request{File: "F", Deadline: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Request{File: "F"}); err == nil {
		t.Fatal("duplicate pending request accepted")
	}
	// Tune in at slot 7: the deadline clock starts here.
	if got := c.Observe(7, fa[0].MarshalInto(nil)); got != Stored {
		t.Fatalf("outcome = %v, want Stored", got)
	}
	if c.start != 7 {
		t.Fatalf("start = %d, want 7", c.start)
	}
	if got := c.Observe(8, nil); got != Idle {
		t.Fatalf("outcome = %v, want Idle", got)
	}
	if got := c.Observe(9, fa[0].MarshalInto(nil)); got != Ignored {
		t.Fatalf("duplicate block outcome = %v, want Ignored", got)
	}
	if got := c.Observe(10, ga[0].MarshalInto(nil)); got != Unknown {
		t.Fatalf("undirected block outcome = %v, want Unknown", got)
	}
	bad := fa[1].MarshalInto(nil)
	bad[len(bad)-1] ^= 0xff
	if got := c.Observe(11, bad); got != Corrupt {
		t.Fatalf("garbled block outcome = %v, want Corrupt", got)
	}
	if got := c.Observe(11, fa[2].MarshalInto(nil)); got != Completed {
		t.Fatalf("outcome = %v, want Completed", got)
	}
	r := c.results[0]
	if !r.Completed || r.Latency != 5 || !r.DeadlineMet {
		t.Fatalf("result %+v, want completion at latency 5 within deadline", r)
	}

	// A request added mid-stream measures from its own activation slot.
	c.Learn(2, "G")
	if err := c.Add(Request{File: "G", Deadline: 3}); err != nil {
		t.Fatal(err)
	}
	if c.PendingCount() != 1 || !c.IsPending("G") {
		t.Fatalf("pending = %v", pendingNames(c))
	}
	if got := c.Observe(13, ga[1].MarshalInto(nil)); got != Completed {
		t.Fatalf("outcome = %v, want Completed", got)
	}
	r = c.results[1]
	if r.Latency != 2 || !r.DeadlineMet {
		t.Fatalf("mid-stream request latency = %d (met=%v), want 2 within 3", r.Latency, r.DeadlineMet)
	}

	// Re-requesting a completed file starts a fresh retrieval.
	if err := c.Add(Request{File: "G"}); err != nil {
		t.Fatal(err)
	}
	if c.Done() {
		t.Fatal("re-request should reopen the file")
	}

	// PendingCount follows every way a request can end: cancelled,
	// flushed, and (above) completed.
	if err := c.Add(Request{File: "F"}); err != nil {
		t.Fatal(err)
	}
	if c.PendingCount() != 2 {
		t.Fatalf("pending count = %d, want 2 (%v)", c.PendingCount(), pendingNames(c))
	}
	if !c.Cancel("G") || c.Cancel("G") || c.PendingCount() != 1 {
		t.Fatalf("after cancelling G: pending %v", pendingNames(c))
	}
	c.Flush(20)
	if !c.Done() || c.PendingCount() != 0 || len(pendingNames(c)) != 0 {
		t.Fatalf("after flush: pending %v", pendingNames(c))
	}
	if err := c.Add(Request{File: "F"}); err != nil || c.PendingCount() != 1 {
		t.Fatalf("re-request after flush: err %v, pending %v", err, pendingNames(c))
	}
}

func TestMultipleRequests(t *testing.T) {
	fa := disperse(t, 1, []byte("file F"), 1, 2)
	ga := disperse(t, 2, []byte("file G"), 1, 2)
	c := tuned(t, 0, map[uint32]string{1: "F", 2: "G"}, Request{File: "F"}, Request{File: "G"})
	c.Observe(0, fa[0].MarshalInto(nil))
	if c.Done() {
		t.Fatal("done after one of two requests")
	}
	c.Observe(1, ga[1].MarshalInto(nil))
	if !c.Done() {
		t.Fatal("not done after both requests")
	}
	if len(c.results) != 2 {
		t.Fatalf("results = %d", len(c.results))
	}
}

// TestFlushRequestOrder: flushed failures and Pending come out in the
// order the requests were made, never in map-iteration order — on every
// one of 200 fresh clients, with some requests completing in between.
func TestFlushRequestOrder(t *testing.T) {
	names := map[uint32]string{}
	var order []string
	var blocks [][]*ida.Block
	for i := 0; i < 8; i++ {
		name := string(rune('h' - i)) // request order is not name order
		names[uint32(i+1)] = name
		order = append(order, name)
		blocks = append(blocks, disperse(t, uint32(i+1), []byte("file "+name), 1, 2))
	}
	open := []string{order[0], order[2], order[3], order[5], order[6]}
	for run := 0; run < 200; run++ {
		c := NewSubscriber(names)
		for i, name := range order {
			if err := c.Add(Request{File: name}); err != nil {
				t.Fatal(err)
			}
			if i == 4 { // complete two of the first five while the rest are still to come
				c.Observe(0, blocks[1][0].MarshalInto(nil))
				c.Observe(1, blocks[4][1].MarshalInto(nil))
			}
		}
		c.Observe(2, blocks[7][0].MarshalInto(nil))
		if got := pendingNames(c); !slices.Equal(got, open) {
			t.Fatalf("run %d: Pending = %v, want request order %v", run, got, open)
		}
		var flushed []string
		for _, r := range c.Flush(9)[3:] {
			flushed = append(flushed, r.File)
		}
		if !slices.Equal(flushed, open) {
			t.Fatalf("run %d: flushed %v, want request order %v", run, flushed, open)
		}
	}
}

// TestHandOver: two clients of one listener collect the same file on two
// channels and hand what they hold back and forth. A block the taker
// already holds is recycled, the request completes on the hand-over that
// brings it to M distinct blocks with the latency of the taker's own
// clock, the giver's request stays open, and once Settle has run no pool
// has grown at the other's expense: the loop allocates nothing when warm.
func TestHandOver(t *testing.T) {
	data := []byte("any three blocks, from whichever channel")
	blocks := disperse(t, 1, data, 3, 6)
	frames := make([][]byte, len(blocks))
	for i, b := range blocks {
		frames[i] = b.MarshalInto(nil)
	}
	names := map[uint32]string{1: "F"}
	a, b := tuned(t, 0, names), tuned(t, 10, names)
	var hand, results []Result
	var moved []*ida.Block
	round := func() {
		a.Add(Request{File: "F"})
		b.Add(Request{File: "F"})
		if a.Observe(a.now+1, frames[0]) != Stored || a.Observe(a.now+1, frames[4]) != Stored || a.Heard() != "F" {
			t.Fatal("the giver did not store its two blocks")
		}
		if b.Observe(b.now+1, frames[4]) != Stored {
			t.Fatal("the taker did not store its block")
		}
		moved = a.Yield("F", moved[:0])
		if len(moved) != 2 || !a.IsPending("F") || b.Take("F", moved) {
			t.Fatalf("%d blocks handed over, one of them held already: the giver must stay open and the taker not complete", len(moved))
		}
		if a.Observe(a.now+1, frames[5]) != Stored {
			t.Fatal("the giver stopped collecting")
		}
		if moved = a.Yield("F", moved[:0]); !b.Take("F", moved) || b.IsPending("F") {
			t.Fatal("the third distinct block did not complete the taker")
		}
		a.Cancel("F")
		if moved = a.Settle(b.Settle(moved[:0])); len(moved) != 0 || a.lent != 0 || b.lent != 0 {
			t.Fatalf("after settling %d blocks are over, the giver is owed %d and the taker owes %d", len(moved), -a.lent, b.lent)
		}
		results = b.TakeResults(results[:0])
		hand = append(hand[:0], results...)
		b.Recycle(results[0].Data)
	}
	round()
	if r := hand[0]; !r.Completed || r.BlocksUsed != 3 || r.Latency != 1 || !bytes.Equal(r.Data, data) {
		t.Fatalf("pooled result %+v", r)
	}
	if b.Take("F", a.Yield("F", nil)) || b.Take("G", blocks[:1]) || len(b.freeBlocks) != 2 {
		t.Fatalf("a hand-over with no request on either side did something: %d blocks pooled", len(b.freeBlocks))
	}
	b.freeBlocks, b.lent = b.freeBlocks[:1], 0 // blocks[0] is the test's, not a pool's
	round()
	free := len(a.freeBlocks) + len(b.freeBlocks)
	allocs := testing.AllocsPerRun(50, round)
	if raceEnabled {
		allocs = 0 // the race detector drops sync.Pool puts at random
	}
	if allocs != 0 || len(a.freeBlocks)+len(b.freeBlocks) != free || len(a.freeBlocks) != 3 {
		t.Fatalf("a warm hand-over round allocates %.1f times; pools %d+%d blocks, %d before", allocs, len(a.freeBlocks), len(b.freeBlocks), free)
	}
}

// TestRowsInPlace drives two clients of one listener through seeded
// random arrivals — duplicates, corrupt frames and blocks nobody asked
// for among them — with Cancel, Flush, hand-overs both ways and Recycle
// in between. Every completed Data is the file, and a Data handed out is
// never written again until it is recycled: each is checked against its
// snapshot after every step.
func TestRowsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type file struct {
		name   string
		data   []byte
		frames [][]byte
	}
	var files []file
	names := map[uint32]string{}
	for i := 0; i < 4; i++ {
		m := 1 + i
		f := file{name: fmt.Sprintf("f%d", i), data: make([]byte, 40*m+7*i)}
		rng.Read(f.data)
		for _, b := range disperse(t, uint32(i+1), f.data, m, m+2) {
			f.frames = append(f.frames, b.MarshalInto(nil))
		}
		files = append(files, f)
		names[uint32(i+1)] = f.name
	}
	type handed struct {
		data, snapshot []byte
	}
	var out []handed
	clients := []*Client{tuned(t, 0, names), tuned(t, 0, names)}
	var results []Result
	var moved []*ida.Block
	now := 0
	for step := 0; step < 50000; step++ {
		c, other := clients[step%2], clients[1-step%2]
		f := files[rng.Intn(len(files))]
		flushed := false
		switch op := rng.Intn(20); {
		case op < 5: // often on both: a file wanted on two channels
			c.Add(Request{File: f.name})
			if op%2 == 0 {
				other.Add(Request{File: f.name})
			}
		case op < 13:
			now++
			raw := f.frames[rng.Intn(len(f.frames))]
			if op == 12 {
				raw = append([]byte(nil), raw...)
				raw[len(raw)-1] ^= 0xff
			}
			c.Observe(now, raw)
		case op == 13:
			c.Cancel(f.name)
		case op == 14:
			now++
			c.Flush(now)
			flushed = true
		case op < 18:
			moved = other.Yield(f.name, moved[:0])
			c.Take(f.name, moved)
			clear(moved)
			moved = c.Settle(other.Settle(moved[:0]))
		case len(out) > 0:
			k := rng.Intn(len(out))
			c.Recycle(out[k].data)
			out = slices.Delete(out, k, k+1)
		}
		for _, cl := range clients {
			results = cl.TakeResults(results[:0])
			for _, r := range results {
				switch {
				case r.Completed && !bytes.Equal(r.Data, files[r.File[1]-'0'].data):
					t.Fatalf("step %d: %s rebuilt wrong", step, r.File)
				case r.Completed:
					out = append(out, handed{r.Data, bytes.Clone(r.Data)})
				case !flushed:
					t.Fatalf("step %d: %s failed to rebuild", step, r.File)
				}
			}
		}
		for _, h := range out {
			if !bytes.Equal(h.data, h.snapshot) {
				t.Fatalf("step %d: a Data handed out was written before it was recycled", step)
			}
		}
	}
}

// TestForgedHeaderNotPlaced: the checksum is no authentication, so a
// frame can pass it with any header. A systematic block whose M and N lie
// outside the codec's M ≤ N ≤ 256 is stored with its own buffer, as a
// parity block is, instead of sizing a row buffer of M payloads; it fails
// its retrieval, and the file's real blocks rebuild the file after it.
func TestForgedHeaderNotPlaced(t *testing.T) {
	const l = 1 << 10
	data := bytes.Repeat([]byte("real file "), 3*l/10)
	real := disperse(t, 1, data, 3, 5)
	for _, forged := range []ida.Block{
		{M: 65535, N: 65535},
		{M: 300, N: 300},
		{M: 200, N: 100},
	} {
		forged.FileID, forged.Length, forged.Payload = 1, uint32(forged.M)*l, make([]byte, l)
		frame := forged.MarshalInto(nil)
		c := tuned(t, 0, map[uint32]string{1: "F"}, Request{File: "F"})
		c.Observe(1, real[4].MarshalInto(nil)) // with the forged block and one more, M = 3 are held
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := c.Observe(2, frame)
		runtime.ReadMemStats(&after)
		if out != Stored {
			t.Fatalf("M=%d N=%d: outcome %d, want the block stored", forged.M, forged.N, out)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 16*l {
			t.Fatalf("M=%d N=%d: one %d-byte block allocated %d bytes", forged.M, forged.N, l, grown)
		}
		if c.Observe(3, real[1].MarshalInto(nil)) != Completed || c.results[0].Completed {
			t.Fatalf("M=%d N=%d: a third block did not fail the retrieval on the forged one", forged.M, forged.N)
		}
		c.Add(Request{File: "F"})
		for i, b := range real[:3] {
			c.Observe(4+i, b.MarshalInto(nil))
		}
		if res := c.results; len(res) != 2 || !res[1].Completed || !bytes.Equal(res[1].Data, data) {
			t.Fatalf("M=%d N=%d: the real blocks did not rebuild the file: %+v", forged.M, forged.N, res)
		}
	}
}

// TestCorruptRowFrameWritesNothing: once a file's rows are placed, a
// frame whose header names a wanted row decodes straight into that row —
// but only after its checksum passes. A corrupted frame for row 2, and
// one whose garbled header names row 3, arrive before the real blocks:
// each is Corrupt and leaves the output buffer as it was, and the real
// blocks then rebuild the file byte-exact, rows 2 and 3 decoded in place.
func TestCorruptRowFrameWritesNothing(t *testing.T) {
	const m, l = 4, 1 << 10
	data := make([]byte, m*l)
	rand.New(rand.NewSource(32)).Read(data)
	blocks := disperse(t, 1, data, m, m+2)
	c := tuned(t, 0, map[uint32]string{1: "F"}, Request{File: "F"})
	if c.Observe(1, blocks[0].MarshalInto(nil)) != Stored {
		t.Fatal("first systematic block not stored")
	}
	p := c.pending["F"]
	corrupt := blocks[2].MarshalInto(nil)
	corrupt[len(corrupt)-1] ^= 0xff
	garbled := blocks[1].MarshalInto(nil)
	garbled[5] = 3 // Seq 1 → 3, checksum left as it was
	for i, raw := range [][]byte{corrupt, garbled} {
		before := bytes.Clone(p.data)
		if out := c.Observe(2+i, raw); out != Corrupt {
			t.Fatalf("frame %d: outcome %d, want Corrupt", i, out)
		}
		if !bytes.Equal(p.data, before) || len(p.blocks) != 1 {
			t.Fatalf("frame %d failed its checksum but was written or kept", i)
		}
	}
	for i, j := range []int{2, 3, 1} {
		out := c.Observe(4+i, blocks[j].MarshalInto(nil))
		if c.Heard() != "F" || (j != 1 && !p.inPlace(p.blocks[uint16(j)])) {
			t.Fatalf("row %d: heard %q, in place %v", j, c.Heard(), p.inPlace(p.blocks[uint16(j)]))
		}
		if j == 1 && out != Completed {
			t.Fatalf("last row: outcome %d, want Completed", out)
		}
	}
	if res := c.TakeResults(nil); len(res) != 1 || !res[0].Completed || !bytes.Equal(res[0].Data, data) {
		t.Fatalf("file not rebuilt byte-exact: %+v", res)
	}
}
