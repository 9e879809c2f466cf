package ida

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pinbcast/internal/gf256"
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

// reference is c's dispersal of data computed from its definition,
// byte by byte with gf256.MulSlow and sharing no loop with the encoder:
// payload i = Σⱼ mat[i][j]·sourceⱼ over the m source blocks of
// ⌈len/m⌉ bytes, the last zero-padded.
func reference(c *Codec, data []byte) [][]byte {
	l := (len(data) + c.m - 1) / c.m
	padded := make([]byte, c.m*l)
	copy(padded, data)
	out := make([][]byte, c.n)
	for i := range out {
		out[i] = make([]byte, l)
		for j := 0; j < c.m; j++ {
			for b := range out[i] {
				out[i][b] ^= gf256.MulSlow(c.mat.At(i, j), padded[j*l+b])
			}
		}
	}
	return out
}

// disperseRange runs DisperseFramesRange on storage of its own, sized
// by FrameLen.
func disperseRange(c *Codec, id uint32, data []byte, first, end int) ([]*Block, [][]byte, error) {
	wire, err := c.FrameLen(len(data))
	if err != nil {
		return nil, nil, err
	}
	rows := end - first
	store, blocks, frames := make([]Block, rows), make([]*Block, rows), make([][]byte, rows)
	if err := c.DisperseFramesRange(id, data, first, end, make([]byte, rows*wire), store, frames); err != nil {
		return nil, nil, err
	}
	for k := range store {
		blocks[k] = &store[k]
	}
	return blocks, frames, nil
}

// encodeCases is the (m, n) grid and the file set of every encoder
// test: batchFiles' lengths plus random files whose lengths are 1 to
// past 4 KiB, so source blocks are whole, partial and all padding.
func encodeCases(t *testing.T, each func(c *Codec, files [][]byte)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for _, mn := range [][2]int{{1, 1}, {1, 4}, {2, 3}, {3, 6}, {4, 4}, {5, 13}, {7, 13}, {8, 8}, {8, 12}} {
		c, err := NewCodec(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		files := batchFiles(mn[0])
		for _, l := range []int{2, 3, 7, 8, 9, 15, 63, 64, 65, 1000, 4093} {
			data := make([]byte, l)
			rng.Read(data)
			files = append(files, data)
		}
		each(c, files)
	}
}

// TestDisperseIntoMatchesDisperse holds DisperseInto to the dispersal
// as defined (reference), with its buffers reused from the previous
// file so that no bytes leak between inputs.
func TestDisperseIntoMatchesDisperse(t *testing.T) {
	encodeCases(t, func(c *Codec, files [][]byte) {
		var reused [][]byte
		for _, data := range files {
			want := reference(c, data)
			var err error
			if reused, err = c.DisperseInto(data, reused); err != nil {
				t.Fatal(err)
			}
			if len(reused) != c.n {
				t.Fatalf("(%d,%d) len %d: got %d payloads, want %d", c.m, c.n, len(data), len(reused), c.n)
			}
			for i := range want {
				if !bytes.Equal(reused[i], want[i]) {
					t.Fatalf("(%d,%d) len %d: payload %d of DisperseInto differs from the reference", c.m, c.n, len(data), i)
				}
			}
		}
	})
}

// TestDisperseBatchMatchesDisperse holds DisperseBatch to the
// dispersal as defined (reference), file by file.
func TestDisperseBatchMatchesDisperse(t *testing.T) {
	encodeCases(t, func(c *Codec, files [][]byte) {
		batch, err := c.DisperseBatch(files, nil)
		if err != nil {
			t.Fatalf("(%d,%d): DisperseBatch: %v", c.m, c.n, err)
		}
		if len(batch) != len(files) {
			t.Fatalf("(%d,%d): got %d results, want %d", c.m, c.n, len(batch), len(files))
		}
		for f, data := range files {
			want := reference(c, data)
			if len(batch[f]) != len(want) {
				t.Fatalf("(%d,%d) file %d: got %d payloads, want %d", c.m, c.n, f, len(batch[f]), len(want))
			}
			for i := range want {
				if !bytes.Equal(batch[f][i], want[i]) {
					t.Fatalf("(%d,%d) file %d: payload %d of DisperseBatch differs from the reference", c.m, c.n, f, i)
				}
			}
		}
	})
}

// TestDisperseMatchesReference holds DisperseFramesRange to the
// reference for every range [first, end), parity-only ones reading a
// short tail from the file included.
func TestDisperseMatchesReference(t *testing.T) {
	encodeCases(t, func(c *Codec, files [][]byte) {
		for _, data := range files {
			want := reference(c, data)
			for first := 0; first < c.n; first++ {
				for end := first + 1; end <= c.n; end++ {
					blocks, _, err := disperseRange(c, 1, data, first, end)
					if err != nil {
						t.Fatal(err)
					}
					if len(blocks) != end-first {
						t.Fatalf("(%d,%d) len %d: range [%d,%d) gave %d blocks", c.m, c.n, len(data), first, end, len(blocks))
					}
					for k, b := range blocks {
						if int(b.Seq) != first+k || !bytes.Equal(b.Payload, want[first+k]) {
							t.Fatalf("(%d,%d) len %d: block %d of range [%d,%d) is Seq %d or differs from the reference",
								c.m, c.n, len(data), k, first, end, b.Seq)
						}
					}
				}
			}
		}
	})
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

// TestDisperseRefusesLengthPastUint32: a block's Length is 32 bits, so
// a file of 2³² + k bytes would go out under Length k and rebuild as k
// bytes. The bound is a function of the length alone, which every
// entry asks before it sizes a buffer, so it is tested without one.
func TestDisperseRefusesLengthPastUint32(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("an int cannot hold a length past 4 GiB")
	}
	c, err := NewCodec(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(math.MaxUint32)
	if l, err := c.FrameLen(int(limit)); err != nil || l != headerSize+int(limit/8+1) {
		t.Fatalf("a file of 2³² − 1 bytes: frame %d, %v", l, err)
	}
	for _, k := range []uint64{1, 5, 1 << 20} {
		if _, err := c.FrameLen(int(limit + k)); !errors.Is(err, ErrBadParams) {
			t.Fatalf("a file of 2³² − 1 + %d bytes: err = %v, want ErrBadParams", k, err)
		}
	}
	if _, err := c.FrameLen(0); !errors.Is(err, ErrEmptyFile) {
		t.Fatalf("an empty file: err = %v, want ErrEmptyFile", err)
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

// BenchmarkDisperseBatchMBps disperses a file set per op with all
// buffers reused: sixteen 64 KiB files at the dataplane parameters
// (m=8, n=12), and admit-churn's catalogue shape — 256 files of 1 KiB
// blocks with one tolerated fault, here all four blocks long at
// (m=4, n=5).
func BenchmarkDisperseBatchMBps(b *testing.B) {
	for _, s := range []struct {
		files, m, n, size int
	}{{16, 8, 12, dataplaneSize}, {256, 4, 5, 4 << 10}} {
		b.Run(fmt.Sprintf("files=%d/size=%dKiB", s.files, s.size>>10), func(b *testing.B) {
			c, err := NewCodec(s.m, s.n)
			if err != nil {
				b.Fatal(err)
			}
			files := make([][]byte, s.files)
			for f := range files {
				d := make([]byte, s.size)
				for i := range d {
					d[i] = byte(i*7 + 3 + f)
				}
				files[f] = d
			}
			dst, err := c.DisperseBatch(files, nil)
			if err != nil {
				b.Fatal(err)
			}
			logKernel(b)
			b.SetBytes(int64(s.files * s.size))
			check := zeroalloc.Start(b)
			for i := 0; i < b.N; i++ {
				if dst, err = c.DisperseBatch(files, dst); err != nil {
					b.Fatal(err)
				}
			}
			check()
		})
	}
}

// TestDisperseFramesMatchesMarshal holds the slab-direct encode to the
// two-step one: payloads equal to the reference's, every frame equal to
// the block's MarshalInto, and the block's payload aliasing the frame.
func TestDisperseFramesMatchesMarshal(t *testing.T) {
	for _, mn := range [][2]int{{1, 1}, {1, 4}, {4, 4}, {8, 12}, {5, 13}} {
		c, err := NewCodec(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		for f, data := range batchFiles(mn[0]) {
			id := uint32(1000 + f)
			blocks, frames, err := disperseRange(c, id, data, 0, mn[1])
			if err != nil {
				t.Fatalf("(%d,%d): DisperseFramesRange: %v", mn[0], mn[1], err)
			}
			want := reference(c, data)
			if len(blocks) != c.n || len(frames) != c.n {
				t.Fatalf("(%d,%d) file %d: %d blocks, %d frames", mn[0], mn[1], f, len(blocks), len(frames))
			}
			for seq, b := range blocks {
				ref := Block{FileID: id, Seq: uint16(seq), M: uint16(mn[0]), N: uint16(mn[1]),
					Length: uint32(len(data)), Payload: want[seq]}
				if !bytes.Equal(frames[seq], ref.MarshalInto(nil)) {
					t.Fatalf("(%d,%d) file %d frame %d differs from Marshal", mn[0], mn[1], f, seq)
				}
				if &b.Payload[0] != &frames[seq][headerSize] || cap(b.Payload) != len(b.Payload) {
					t.Fatalf("(%d,%d) file %d block %d does not alias its frame", mn[0], mn[1], f, seq)
				}
				var back Block
				if err := UnmarshalInto(frames[seq], &back); err != nil {
					t.Fatalf("(%d,%d) file %d frame %d: %v", mn[0], mn[1], f, seq, err)
				}
			}
		}
	}
}

// TestDisperseRange holds the split of one code between R senders: over
// an (m, w, R) grid, every range of the code of width R·w is the share
// of the reference code it names — range 0 the payloads of the code of
// width w (only the header's N differs) — and any m blocks of the union
// reconstruct: every m-subset where there are at most 5 000, seeded
// random ones above.
func TestDisperseRange(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := make([]byte, 1000+7)
	rng.Read(data)
	files := [][]byte{data, data[:3]} // the second leaves source blocks all padding
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
		union := make([][]*Block, len(files))
		for f, data := range files {
			alone, whole := reference(narrow, data), reference(wide, data)
			for j := 0; j < homes; j++ {
				blocks, frames, err := disperseRange(wide, uint32(9+f), data, j*w, (j+1)*w)
				if err != nil {
					t.Fatal(err)
				}
				for k, b := range blocks {
					if b.Seq != uint16(j*w+k) || b.N != uint16(homes*w) || !bytes.Equal(b.Payload, whole[j*w+k]) || !bytes.Equal(frames[k], b.MarshalInto(nil)) {
						t.Fatalf("(%d,%d,%d) file %d: block %d of range %d is not block %d of the whole code", m, w, homes, f, k, j, j*w+k)
					}
					if j == 0 && !bytes.Equal(b.Payload, alone[k]) {
						t.Fatalf("(%d,%d,%d) file %d: block %d of range 0 differs from the code of width %d", m, w, homes, f, k, w)
					}
				}
				union[f] = append(union[f], blocks...)
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
		for _, subset := range subsets(rng, n, m, 5000, 500) {
			check(subset)
		}
	}
	// A range need not start on a multiple of its width: one that holds
	// part of the systematic prefix encodes from the file for the rest.
	c, _ := Shared(2, 6)
	whole := reference(c, data)
	if part, _, err := disperseRange(c, 9, data, 1, 4); err != nil || !bytes.Equal(part[2].Payload, whole[3]) {
		t.Fatalf("blocks [1,4) of 6: block 3 differs from the whole code's (%v)", err)
	}
	wire, _ := c.FrameLen(len(data))
	for _, r := range [][2]int{{-1, 3}, {3, 3}, {4, 7}} {
		rows := max(0, r[1]-r[0])
		if err := c.DisperseFramesRange(9, data, r[0], r[1], make([]byte, rows*wire), make([]Block, rows), make([][]byte, rows)); !errors.Is(err, ErrBadParams) {
			t.Fatalf("range [%d,%d) of 6 blocks: %v", r[0], r[1], err)
		}
	}
	// So is storage of any other size than the range's frames.
	for _, sz := range [][3]int{{3, 3, 3*wire - 1}, {3, 3, 3*wire + 1}, {2, 3, 3 * wire}, {3, 4, 3 * wire}} {
		if err := c.DisperseFramesRange(9, data, 1, 4, make([]byte, sz[2]), make([]Block, sz[0]), make([][]byte, sz[1])); !errors.Is(err, ErrBadParams) {
			t.Fatalf("blocks [1,4) into %d blocks, %d frames and %d bytes: %v", sz[0], sz[1], sz[2], err)
		}
	}
}
