package pinbcast

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"weak"

	"pinbcast/internal/workload"
)

// loopReplay replays a recording round and round, each lap's slot
// numbers following the last's, until the slot index reaches end (0 =
// never): the stream then ends with io.EOF.
type loopReplay struct {
	slots  []Slot
	i, end int
}

func (s *loopReplay) Next() (Slot, error) {
	if s.end > 0 && s.i >= s.end {
		return Slot{}, io.EOF
	}
	slot := s.slots[s.i%len(s.slots)]
	slot.T += s.i / len(s.slots) * len(s.slots)
	s.i++
	return slot, nil
}

func (s *loopReplay) Close() error { return nil }

// TestReceiverHandsResultsOver: a receiver keeps only what it has not
// handed over. Over 10 000 Step → Results → Recycle retrievals of 2-, 5-
// and 8-block files of 64 KiB blocks, in a seeded order, every Results
// returns exactly the retrieval just completed, and the output buffer is
// replaced only when a larger file first arrives — at which point the
// buffer it supersedes is garbage: nothing the receiver recorded pins
// it. RunInto keeps Run's contract: it flushes on the stream's end and
// on a cancelled context, in request order, appends to dst, and
// allocates nothing when dst is reused.
func TestReceiverHandsResultsOver(t *testing.T) {
	files := []FileSpec{
		{Name: "A", Blocks: 2, Latency: 24, Faults: 2},
		{Name: "B", Blocks: 5, Latency: 40, Faults: 2},
		{Name: "C", Blocks: 8, Latency: 64, Faults: 2},
	}
	contents := workload.Contents(files, 64<<10, 5)
	st, err := New(WithFiles(files...), WithContents(contents))
	if err != nil {
		t.Fatal(err)
	}
	src := &loopReplay{slots: recorded(record(t, st, 4*st.Program().DataCycle()))}
	r, err := Subscribe(src, WithDirectory(st.Directory()), WithReceiverFaults(BernoulliFaults(0.05, 1)))
	if err != nil {
		t.Fatal(err)
	}
	retrieve := func(name string) {
		t.Helper()
		if err := r.Request(name, 0); err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			if done, err = r.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	rng := rand.New(rand.NewSource(12))
	var buf weak.Pointer[byte] // the output buffer of the latest retrieval
	largest, superseded := 0, 0
	for i := range 10000 {
		f := files[rng.Intn(len(files))]
		retrieve(f.Name)
		res := r.Results()
		if len(res) != 1 || res[0].File != f.Name || !res[0].Completed || !bytes.Equal(res[0].Data, contents[f.Name]) {
			t.Fatalf("retrieval %d of %q: Results handed over %d results (%+v)", i, f.Name, len(res), res)
		}
		if now := weak.Make(&res[0].Data[:1][0]); now != buf {
			if i > 0 {
				if f.Blocks <= largest {
					t.Fatalf("retrieval %d: a %d-block file replaced the buffer that held %d blocks", i, f.Blocks, largest)
				}
				runtime.GC()
				if buf.Value() != nil {
					t.Fatalf("retrieval %d: the buffer a %d-block file superseded is still reachable", i, f.Blocks)
				}
				superseded++
			}
			buf = now
		}
		largest = max(largest, f.Blocks)
		r.Recycle(res[0])
	}
	if superseded != 2 { // the seed's order opens A, B, B, A, C
		t.Fatalf("a larger file superseded the output buffer %d times, want 2", superseded)
	}

	// RunInto appends to dst: what completed, in completion order, then
	// what the stream's end flushed, in request order.
	for _, name := range []string{"zeta", "A", "alpha", "C"} {
		if err := r.Request(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	src.end = src.i + len(src.slots)
	dst, err := r.RunInto(context.Background(), []Result{{File: "earlier"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 5 || dst[0].File != "earlier" {
		t.Fatalf("RunInto to the stream's end returned %+v", dst)
	}
	for _, res := range dst[1:3] {
		if !res.Completed || !bytes.Equal(res.Data, contents[res.File]) {
			t.Fatalf("RunInto to the stream's end: %q not rebuilt", res.File)
		}
	}
	if got := []string{dst[3].File, dst[4].File}; dst[3].Completed || dst[4].Completed || !slices.Equal(got, []string{"zeta", "alpha"}) {
		t.Fatalf("the stream's end flushed %v (completed %v %v), want [zeta alpha] failed", got, dst[3].Completed, dst[4].Completed)
	}
	if got := r.Results(); len(got) != 0 {
		t.Fatalf("RunInto handed %d results over, and Results found %d more", len(dst)-1, len(got))
	}
	src.end = 0

	// A cancelled context flushes every request, in request order, and so
	// does a stream that has already ended.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	flush := func(ctx context.Context, want error) {
		for _, name := range []string{"zeta", "C", "alpha"} {
			if err := r.Request(name, 0); err != nil {
				t.Fatal(err)
			}
		}
		if dst, err = r.RunInto(ctx, dst[:0]); err != want {
			t.Fatalf("RunInto: err = %v, want %v", err, want)
		}
	}
	flushedInOrder := func() bool {
		return len(dst) == 3 && dst[0].File == "zeta" && dst[1].File == "C" && dst[2].File == "alpha" &&
			!dst[0].Completed && !dst[1].Completed && !dst[2].Completed
	}
	cancelledRun := func() { flush(cancelled, context.Canceled) }
	endedRun := func() {
		src.end = src.i
		flush(context.Background(), nil)
		src.end = 0
	}
	if cancelledRun(); !flushedInOrder() {
		t.Fatalf("a cancelled context flushed %+v, want zeta, C, alpha failed", dst)
	}
	if endedRun(); !flushedInOrder() {
		t.Fatalf("an ended stream flushed %+v, want zeta, C, alpha failed", dst)
	}

	if raceEnabled {
		return
	}
	completed := func() {
		for _, f := range files {
			if err := r.Request(f.Name, 0); err != nil {
				t.Fatal(err)
			}
		}
		if dst, err = r.RunInto(context.Background(), dst[:0]); err != nil || len(dst) != len(files) {
			t.Fatalf("RunInto: %d results, err %v", len(dst), err)
		}
		for _, res := range dst {
			r.Recycle(res)
		}
	}
	for name, run := range map[string]func(){"completed": completed, "cancelled": cancelledRun, "ended": endedRun} {
		run() // warm the pools
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("RunInto into a reused dst, %s: %.1f allocs per run", name, n)
		}
	}
}
