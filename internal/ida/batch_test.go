package ida

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pinbcast/internal/zeroalloc"
)

// batchFiles builds a length-diverse file set: exact multiples of the
// shard length, partial tails, single bytes, and files short enough
// that trailing source blocks are entirely zero padding.
func batchFiles(m int) [][]byte {
	lengths := []int{1, m, m * 100, m*100 + 1, m*100 - 1, 3*100 + 7, 64 << 10}
	files := make([][]byte, len(lengths))
	for f, n := range lengths {
		d := make([]byte, n)
		for i := range d {
			d[i] = byte(i*13 + f*7 + 1)
		}
		files[f] = d
	}
	return files
}

func TestDisperseBatchMatchesDisperse(t *testing.T) {
	for _, mn := range [][2]int{{1, 1}, {1, 4}, {4, 4}, {8, 12}, {5, 13}} {
		c, err := NewCodec(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		files := batchFiles(mn[0])
		batch, err := c.DisperseBatch(files, nil)
		if err != nil {
			t.Fatalf("(%d,%d): DisperseBatch: %v", mn[0], mn[1], err)
		}
		if len(batch) != len(files) {
			t.Fatalf("(%d,%d): got %d results, want %d", mn[0], mn[1], len(batch), len(files))
		}
		for f, data := range files {
			want, err := c.Disperse(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch[f]) != len(want) {
				t.Fatalf("(%d,%d) file %d: got %d payloads, want %d", mn[0], mn[1], f, len(batch[f]), len(want))
			}
			for seq := range want {
				if !bytes.Equal(batch[f][seq], want[seq]) {
					t.Fatalf("(%d,%d) file %d payload %d differs from Disperse", mn[0], mn[1], f, seq)
				}
			}
		}
	}
}

func TestDisperseBatchRoundTrip(t *testing.T) {
	c, err := NewCodec(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	files := batchFiles(4)
	batch, err := c.DisperseBatch(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct every file from redundant rows only — the hardest
	// subset.
	for f, data := range files {
		shards := make([]Shard, 0, 4)
		for s := 5; s < 9; s++ {
			shards = append(shards, Shard{Seq: s, Data: batch[f][s]})
		}
		out, err := c.ReconstructInto(shards, len(data), nil)
		if err != nil {
			t.Fatalf("file %d: %v", f, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("file %d: round trip through batch encode corrupted data", f)
		}
	}
}

func TestDisperseBatchReusesBuffers(t *testing.T) {
	c, err := NewCodec(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	files := batchFiles(8)
	dst, err := c.DisperseBatch(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if dst, err = c.DisperseBatch(files, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DisperseBatch allocates %.1f times per call, want 0", allocs)
	}
}

func TestDisperseBatchRejectsEmptyFile(t *testing.T) {
	c, err := NewCodec(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.DisperseBatch([][]byte{{1, 2, 3}, {}}, nil)
	if !errors.Is(err, ErrEmptyFile) {
		t.Fatalf("err = %v, want ErrEmptyFile", err)
	}
	out, err := c.DisperseBatch(nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v, want empty and nil", out, err)
	}
}

func TestReconstructFileIntoReuse(t *testing.T) {
	data := batchFiles(4)[5]
	blocks, err := DisperseFile(77, data, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReconstructFileInto(blocks[3:8], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ReconstructFileInto corrupted data")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; allocation counts are meaningless")
	}
	buf := got[:cap(got)]
	allocs := testing.AllocsPerRun(10, func() {
		out, err := ReconstructFileInto(blocks[3:8], buf)
		if err != nil {
			t.Fatal(err)
		}
		if &out[0] != &buf[0] {
			t.Fatal("ReconstructFileInto did not reuse the buffer")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReconstructFileInto allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkDisperseBatchMBps disperses sixteen 64 KiB files per op
// through the tiled coefficient-major batch path at the dataplane
// parameters (m=8, n=12), with all buffers reused. Its baseline is
// BenchmarkDispersePerFileLoopMBps: same file set, per-file calls.
func BenchmarkDisperseBatchMBps(b *testing.B) {
	c, err := NewCodec(8, 12)
	if err != nil {
		b.Fatal(err)
	}
	const nFiles = 16
	files := make([][]byte, nFiles)
	for f := range files {
		d := dataplaneFile()
		for i := range d {
			d[i] ^= byte(f)
		}
		files[f] = d
	}
	var dst [][][]byte
	logKernel(b)
	b.SetBytes(nFiles * dataplaneSize)
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		dst, err = c.DisperseBatch(files, dst)
		if err != nil {
			b.Fatal(err)
		}
	}
	check()
}

// BenchmarkDispersePerFileLoopMBps is the per-file baseline for
// BenchmarkDisperseBatchMBps: the same sixteen files dispersed with
// sixteen DisperseInto calls. The gap between the two series is the
// batch path's cache-tiling win.
func BenchmarkDispersePerFileLoopMBps(b *testing.B) {
	c, err := NewCodec(8, 12)
	if err != nil {
		b.Fatal(err)
	}
	const nFiles = 16
	files := make([][]byte, nFiles)
	for f := range files {
		d := dataplaneFile()
		for i := range d {
			d[i] ^= byte(f)
		}
		files[f] = d
	}
	dst := make([][][]byte, nFiles)
	logKernel(b)
	b.SetBytes(nFiles * dataplaneSize)
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		for f, data := range files {
			dst[f], err = c.DisperseInto(data, dst[f])
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	check()
}

// TestDisperseFramesMatchesMarshal holds the slab-direct encode to the
// two-step one: payloads equal to Disperse's, every frame equal to the
// block's MarshalInto, and the block's payload aliasing the frame.
func TestDisperseFramesMatchesMarshal(t *testing.T) {
	for _, mn := range [][2]int{{1, 1}, {1, 4}, {4, 4}, {8, 12}, {5, 13}} {
		c, err := NewCodec(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		files := batchFiles(mn[0])
		ids := make([]uint32, len(files))
		for f := range ids {
			ids[f] = uint32(1000 + f)
		}
		blocks, frames, err := c.DisperseFramesRange(ids, files, 0, mn[1])
		if err != nil {
			t.Fatalf("(%d,%d): DisperseFramesRange: %v", mn[0], mn[1], err)
		}
		for f, data := range files {
			want, err := c.Disperse(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks[f]) != c.n || len(frames[f]) != c.n {
				t.Fatalf("(%d,%d) file %d: %d blocks, %d frames", mn[0], mn[1], f, len(blocks[f]), len(frames[f]))
			}
			for seq, b := range blocks[f] {
				ref := Block{FileID: ids[f], Seq: uint16(seq), M: uint16(mn[0]), N: uint16(mn[1]),
					Length: uint32(len(data)), Payload: want[seq]}
				if !bytes.Equal(frames[f][seq], ref.MarshalInto(nil)) {
					t.Fatalf("(%d,%d) file %d frame %d differs from Marshal", mn[0], mn[1], f, seq)
				}
				if &b.Payload[0] != &frames[f][seq][headerSize] || cap(b.Payload) != len(b.Payload) {
					t.Fatalf("(%d,%d) file %d block %d does not alias its frame", mn[0], mn[1], f, seq)
				}
				var back Block
				if err := UnmarshalInto(frames[f][seq], &back); err != nil {
					t.Fatalf("(%d,%d) file %d frame %d: %v", mn[0], mn[1], f, seq, err)
				}
			}
		}
	}
	c, _ := NewCodec(2, 3)
	if _, _, err := c.DisperseFramesRange([]uint32{1, 2}, [][]byte{{1}, {}}, 0, 3); !errors.Is(err, ErrEmptyFile) {
		t.Fatalf("empty file: err = %v, want ErrEmptyFile", err)
	}
}

// TestDisperseRange holds the split of one code between R senders: over
// an (m, w, R) grid, range 0 of the code of width R·w carries the
// payloads of the code of width w (only the header's N differs), every
// range is the share of the whole code it names, and any m blocks of the
// union reconstruct — every m-subset where there are at most 5 000,
// seeded random ones above.
func TestDisperseRange(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := make([]byte, 1000+7)
	rng.Read(data)
	ids, files := []uint32{9, 10}, [][]byte{data, data[:3]} // the second leaves source blocks all padding
	for _, g := range [][3]int{{1, 1, 2}, {1, 3, 3}, {2, 3, 2}, {3, 4, 2}, {3, 4, 3}, {4, 4, 2}, {5, 6, 2}, {6, 7, 3}, {8, 12, 2}} {
		m, w, homes := g[0], g[1], g[2]
		narrow, err := Shared(m, w)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := Shared(m, homes*w)
		if err != nil {
			t.Fatal(err)
		}
		alone, _, err := narrow.DisperseFramesRange(ids, files, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		whole, _, err := wide.DisperseFramesRange(ids, files, 0, homes*w)
		if err != nil {
			t.Fatal(err)
		}
		union := make([][]*Block, len(files))
		for j := 0; j < homes; j++ {
			blocks, frames, err := wide.DisperseFramesRange(ids, files, j*w, (j+1)*w)
			if err != nil {
				t.Fatal(err)
			}
			for f := range files {
				for k, b := range blocks[f] {
					if want := whole[f][j*w+k]; b.Seq != want.Seq || b.N != want.N || !bytes.Equal(b.Payload, want.Payload) || !bytes.Equal(frames[f][k], b.MarshalInto(nil)) {
						t.Fatalf("(%d,%d,%d) file %d: block %d of range %d is not block %d of the whole code", m, w, homes, f, k, j, j*w+k)
					}
					if j == 0 && !bytes.Equal(b.Payload, alone[f][k].Payload) {
						t.Fatalf("(%d,%d,%d) file %d: block %d of range 0 differs from the code of width %d", m, w, homes, f, k, w)
					}
				}
				union[f] = append(union[f], blocks[f]...)
			}
		}
		n := homes * w
		check := func(subset []int) {
			for f, want := range files {
				picked := make([]*Block, m)
				for i, seq := range subset {
					picked[i] = union[f][seq]
				}
				if got, err := ReconstructFileInto(picked, nil); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("(%d,%d,%d) file %d: blocks %v do not reconstruct: %v", m, w, homes, f, subset, err)
				}
			}
		}
		subsets := 1
		for i := 0; i < m; i++ {
			subsets = subsets * (n - i) / (i + 1)
		}
		if subsets > 5000 {
			for i := 0; i < 500; i++ {
				check(rng.Perm(n)[:m])
			}
			continue
		}
		subset := make([]int, m)
		for i := range subset {
			subset[i] = i
		}
		for {
			check(subset)
			i := m - 1
			for i >= 0 && subset[i] == n-m+i {
				i--
			}
			if i < 0 {
				break
			}
			subset[i]++
			for k := i + 1; k < m; k++ {
				subset[k] = subset[k-1] + 1
			}
		}
	}
	// A range need not start on a multiple of its width: one that holds
	// part of the systematic prefix encodes from the file for the rest.
	c, _ := Shared(2, 6)
	whole, _, _ := c.DisperseFramesRange(ids, files, 0, 6)
	if part, _, err := c.DisperseFramesRange(ids, files, 1, 4); err != nil || !bytes.Equal(part[0][2].Payload, whole[0][3].Payload) {
		t.Fatalf("blocks [1,4) of 6: block 3 differs from the whole code's (%v)", err)
	}
	for _, r := range [][2]int{{-1, 3}, {3, 3}, {4, 7}} {
		if _, _, err := c.DisperseFramesRange(ids, files, r[0], r[1]); !errors.Is(err, ErrBadParams) {
			t.Fatalf("range [%d,%d) of 6 blocks: %v", r[0], r[1], err)
		}
	}
}
