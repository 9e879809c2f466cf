package client

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pinbcast/internal/ida"
)

// refClient is the request bookkeeping as it was before the pending map
// held open requests only, kept as an oracle: a request's entry is never
// removed when it ends, only flagged done, and every question walks the
// whole map. It shares nothing with client.go — it is told what each
// slot carried rather than decoding it. Two things differ from the old
// code on purpose: every re-request starts with no blocks (the old Flush
// left a flushed entry's blocks in place for the next Add to find), and
// Pending/Flush report in request order.
type refClient struct {
	start, now, stamp int
	files             map[string]*refFile
	results           []Result
}

type refFile struct {
	deadline, from, corrupted, stamp int
	seqs                             map[uint16]bool
	done                             bool
}

func (r *refClient) isPending(name string) bool {
	f, ok := r.files[name]
	return ok && !f.done
}

func (r *refClient) pending() []string {
	var out []string
	for name, f := range r.files {
		if !f.done {
			out = append(out, name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return r.files[out[i]].stamp < r.files[out[j]].stamp })
	return out
}

func (r *refClient) add(name string, deadline int) bool {
	if name == "" || r.isPending(name) {
		return false
	}
	from := r.start
	if r.start >= 0 && r.now >= r.start {
		from = r.now + 1
	}
	r.files[name] = &refFile{deadline: deadline, from: from, stamp: r.stamp, seqs: map[uint16]bool{}}
	r.stamp++
	return true
}

func (r *refClient) cancel(name string) bool {
	if !r.isPending(name) {
		return false
	}
	delete(r.files, name)
	return true
}

// slot is one observed slot as the oracle sees it: what it carried,
// already classified.
type slot struct {
	kind Outcome // Idle, Corrupt, Unknown, or Stored for a valid directory block
	name string
	seq  uint16
	m    int
	data []byte
}

func (r *refClient) observe(t int, s slot) Outcome {
	if r.start < 0 {
		r.start, r.now = t, t
		for _, f := range r.files {
			if f.from < 0 {
				f.from = t
			}
		}
	}
	if t < r.start {
		return Ignored
	}
	r.now = t
	if s.kind != Stored {
		return s.kind
	}
	f := r.files[s.name]
	if !r.isPending(s.name) || f.seqs[s.seq] {
		return Ignored
	}
	f.seqs[s.seq] = true
	if len(f.seqs) < s.m {
		return Stored
	}
	latency := r.now - f.from + 1
	f.done = true
	r.results = append(r.results, Result{
		File: s.name, Completed: true, Latency: latency, Deadline: f.deadline,
		DeadlineMet: f.deadline == 0 || latency <= f.deadline,
		Data:        s.data, BlocksUsed: s.m, Corrupted: f.corrupted,
	})
	return Completed
}

func (r *refClient) flush(final int) {
	for _, name := range r.pending() {
		f := r.files[name]
		from := f.from
		if from < 0 {
			from = final
		}
		r.results = append(r.results, Result{
			File: name, Deadline: f.deadline, Latency: final - from + 1, Corrupted: f.corrupted,
		})
		f.done = true
	}
}

// sameResults compares two result histories, empty and nil alike.
func sameResults(a, b []Result) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// modelFile is one file of the model's broadcast: its blocks as they
// travel, marshaled once.
type modelFile struct {
	name string
	m    int
	data []byte
	raw  [][]byte
}

// modelBroadcast disperses n directory files plus one the directory
// does not list (the last entry).
func modelBroadcast(t testing.TB, n int) ([]modelFile, map[uint32]string) {
	files := make([]modelFile, n+1)
	names := make(map[uint32]string, n)
	for i := range files {
		f := modelFile{name: fmt.Sprintf("f%02d", i), m: 1 + i%3, data: []byte(fmt.Sprintf("contents of file %02d", i))}
		blocks, err := ida.DisperseFile(uint32(i+1), f.data, f.m, f.m+2)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			f.raw = append(f.raw, b.MarshalInto(nil))
		}
		files[i] = f
		if i < n {
			names[uint32(i+1)] = f.name
		}
	}
	return files, names
}

// modelOps maps an operation byte (mod 32) to what it does: requests
// open faster than they are flushed, and most blocks on the air are for
// a file somebody is waiting for, so every way a request can end —
// completed, cancelled, flushed — and every re-request is exercised.
const modelOps = "AAAAAAAAOOOOOOOOOOBBBCCXXIUPNTTF"

// runModel decodes ops three bytes at a time and applies each operation
// to a Client and to the oracle, failing at the first step after which
// the two disagree on anything a caller can see. It returns the number
// of steps applied.
func runModel(t testing.TB, files []modelFile, names map[uint32]string, ops []byte) int {
	c := NewSubscriber(names)
	ref := &refClient{start: -1, now: -1, files: map[string]*refFile{}}
	dir := files[:len(files)-1]
	byName := make(map[string]modelFile, len(dir))
	for _, f := range dir {
		byName[f.name] = f
	}
	clock := 3 // the first observed slot is not slot 0, so pre-start slots exist
	var taken []Result
	step := 0
	for ; len(ops) >= 3; ops, step = ops[3:], step+1 {
		op, a, b := modelOps[ops[0]%32], int(ops[1]), int(ops[2])
		f := dir[a%len(dir)]
		observe := func(at int, raw []byte, s slot) {
			if got, want := c.Observe(at, raw), ref.observe(at, s); got != want {
				t.Fatalf("step %d (%c): Observe(%d) = %v, oracle %v", step, op, at, got, want)
			}
		}
		block := func(f modelFile) ([]byte, slot) {
			seq := b % len(f.raw)
			return f.raw[seq], slot{kind: Stored, name: f.name, seq: uint16(seq), m: f.m, data: f.data}
		}
		switch op {
		case 'A':
			if got, want := c.Add(Request{File: f.name, Deadline: b % 8}) == nil, ref.add(f.name, b%8); got != want {
				t.Fatalf("step %d: Add(%s) accepted = %v, oracle %v", step, f.name, got, want)
			}
		case 'C':
			if got, want := c.Cancel(f.name), ref.cancel(f.name); got != want {
				t.Fatalf("step %d: Cancel(%s) = %v, oracle %v", step, f.name, got, want)
			}
		case 'O': // a block of an open request, when there is one
			if open := ref.pending(); len(open) > 0 {
				f = byName[open[a%len(open)]]
			}
			fallthrough
		case 'B': // a block of any directory file: wanted, unwanted or duplicate
			raw, s := block(f)
			clock++
			observe(clock, raw, s)
		case 'X':
			raw, _ := block(f)
			raw = append([]byte(nil), raw...)
			raw[len(raw)-1] ^= 0xff
			clock++
			observe(clock, raw, slot{kind: Corrupt})
		case 'I':
			clock++
			observe(clock, nil, slot{kind: Idle})
		case 'U':
			raw, _ := block(files[len(files)-1])
			clock++
			observe(clock, raw, slot{kind: Unknown})
		case 'P': // a slot from before the client tuned in
			if ref.start > 0 {
				raw, s := block(f)
				observe(ref.start-1, raw, s)
			}
		case 'N':
			c.NoteCorruption(f.name)
			if ref.isPending(f.name) {
				ref.files[f.name].corrupted++
			}
		case 'T':
			taken = c.TakeResults(taken[:0])
			if !sameResults(taken, ref.results) {
				t.Fatalf("step %d: TakeResults = %+v, oracle %+v", step, taken, ref.results)
			}
			ref.results = nil
			for _, res := range taken {
				c.Recycle(res.Data) // the buffers are ours now: hand them back
			}
		case 'F':
			ref.flush(clock)
			if got := c.Flush(clock); !sameResults(got, ref.results) {
				t.Fatalf("step %d: Flush = %+v, oracle %+v", step, got, ref.results)
			}
		}

		want := ref.pending()
		if c.PendingCount() != len(want) || c.Done() != (len(want) == 0) || c.start != ref.start {
			t.Fatalf("step %d (%c): PendingCount %d Done %v Start %d, oracle pending %v start %d",
				step, op, c.PendingCount(), c.Done(), c.start, want, ref.start)
		}
		if got := pendingNames(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%c): Pending = %v, oracle %v", step, op, got, want)
		}
		for _, df := range files {
			if c.IsPending(df.name) != ref.isPending(df.name) {
				t.Fatalf("step %d (%c): IsPending(%s) = %v, oracle disagrees", step, op, df.name, c.IsPending(df.name))
			}
		}
		if got := c.results; !sameResults(got, ref.results) {
			t.Fatalf("step %d (%c): Results = %+v, oracle %+v", step, op, got, ref.results)
		}
	}
	return step
}

// TestClientModel drives a Client and the walk-the-map oracle through
// 20 000 seeded random operations over a 64-file directory.
func TestClientModel(t *testing.T) {
	files, names := modelBroadcast(t, 64)
	ops := make([]byte, 3*20000)
	rand.New(rand.NewSource(18)).Read(ops)
	if steps := runModel(t, files, names, ops); steps != 20000 {
		t.Fatalf("ran %d steps", steps)
	}
}

// FuzzClientOps decodes a byte string into the same operations.
func FuzzClientOps(f *testing.F) {
	files, names := modelBroadcast(f, 64)
	f.Add([]byte{0, 1, 0, 8, 0, 0, 8, 0, 1, 29, 0, 0})   // add, collect to completion, take
	f.Add([]byte{0, 2, 3, 0, 5, 0, 8, 0, 0, 31, 0, 0})   // two adds, one block, flush
	f.Add([]byte{0, 4, 0, 8, 0, 0, 21, 4, 0, 0, 4, 0})   // add, block, cancel, re-add
	f.Add([]byte{18, 0, 0, 27, 0, 0, 0, 0, 0, 26, 0, 0}) // tune in, pre-start slot, add, unknown
	f.Fuzz(func(t *testing.T, ops []byte) {
		runModel(t, files, names, ops)
	})
}
