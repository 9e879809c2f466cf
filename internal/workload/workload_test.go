package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pinbcast/internal/core"
	"pinbcast/internal/rtdb"
)

func TestIVHSReproducible(t *testing.T) {
	a := IVHS(5, 42)
	b := IVHS(5, 42)
	if len(a) != len(b) || len(a) != 11 { // 2 per segment + map
		t.Fatalf("sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("seeded generator diverged at %d", i)
		}
	}
	if err := core.ValidateAll(a); err != nil {
		t.Fatal(err)
	}
}

func TestIVHSSchedulable(t *testing.T) {
	files := IVHS(8, 7)
	bw := core.SufficientBandwidth(files)
	if _, err := core.BuildProgramWith(files, bw, nil); err != nil {
		t.Fatalf("IVHS workload not schedulable at Eq-2 bandwidth: %v", err)
	}
}

func TestAWACSDatabase(t *testing.T) {
	db := AWACS()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"combat", "landing"} {
		files, err := db.FileSpecs(rtdb.Mode(mode))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		p, err := core.BuildProgramWith(files, core.SufficientBandwidth(files), nil)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if p.Period < 1 {
			t.Fatalf("mode %s: empty program", mode)
		}
	}
}

func TestRandomBounds(t *testing.T) {
	files := Random(50, 8, 10, 100, 3, 99)
	for _, f := range files {
		if f.Blocks < 1 || f.Blocks > 8 {
			t.Fatalf("blocks %d out of range", f.Blocks)
		}
		if f.Latency < 10 || f.Latency > 100 {
			t.Fatalf("latency %d out of range", f.Latency)
		}
		if f.Faults < 0 || f.Faults > 3 {
			t.Fatalf("faults %d out of range", f.Faults)
		}
	}
	if err := core.ValidateAll(files); err != nil {
		t.Fatal(err)
	}
}

func TestContentsSizedToSpecs(t *testing.T) {
	files := Random(5, 4, 10, 20, 1, 1)
	data := Contents(files, 64, 2)
	for _, f := range files {
		if got := len(data[f.Name]); got != f.Blocks*64 {
			t.Fatalf("file %s: %d bytes, want %d", f.Name, got, f.Blocks*64)
		}
	}
}

// TestContentsIsMathRandStream holds Contents to the stream it
// documents: each file, in order, is what one
// rand.New(rand.NewSource(seed)).Read hands the next buffer. The small
// random shapes (empty files, files shorter than a draw's carried
// bytes, tails of every length) run every head, tail and carry path;
// lossy-bulk's catalogue is the shape the benchmark generates. The
// catalogues of 5–40 KB run one to ten turns of math/rand's 607-draw
// table, with files that start, end and run for every residue mod 56
// (8 draws' bytes, so mod 7 too), so carried heads, tails and 8-draw
// groups meet the table's wraps; their seeds include 0, negatives and
// math.MaxInt64.
func TestContentsIsMathRandStream(t *testing.T) {
	shapes := rand.New(rand.NewSource(1))
	for k := range 2000 {
		files := make([]core.FileSpec, 1+shapes.Intn(6))
		for i := range files {
			files[i] = core.FileSpec{Name: fmt.Sprintf("f%d", i), Blocks: shapes.Intn(5)}
		}
		checkStream(t, files, 1+shapes.Intn(20), int64(k))
	}
	checkStream(t, lossyBulk(), 64<<10, 1)

	seeds := []int64{0, -1, -2, -89482311, math.MinInt64, math.MaxInt64, 1 << 31, 7}
	var starts, ends, lengths [56]bool
	for k := range 240 {
		size, blockSize := 5000+shapes.Intn(35001), 1+shapes.Intn(8)
		var files []core.FileSpec
		for off := 0; off < size; {
			n := shapes.Intn(1 + 3000/blockSize)
			if shapes.Intn(4) == 0 {
				n = shapes.Intn(1 + 120/blockSize)
			}
			files = append(files, core.FileSpec{Name: fmt.Sprintf("f%d", len(files)), Blocks: n})
			starts[off%56], lengths[n*blockSize%56] = true, true
			off += n * blockSize
			ends[off%56] = true
		}
		checkStream(t, files, blockSize, seeds[k%len(seeds)])
	}
	for r := range 56 {
		if !starts[r] || !ends[r] || !lengths[r] {
			t.Fatalf("residue %d mod 56 not met: start %v, end %v, length %v", r, starts[r], ends[r], lengths[r])
		}
	}
}

// checkStream fails t unless each file of Contents(files, blockSize,
// seed), in order, is what one rand.New(rand.NewSource(seed)).Read
// hands the next buffer.
func checkStream(t *testing.T, files []core.FileSpec, blockSize int, seed int64) {
	t.Helper()
	got := Contents(files, blockSize, seed)
	ref := rand.New(rand.NewSource(seed))
	for i, f := range files {
		want := make([]byte, f.Blocks*blockSize)
		ref.Read(want)
		if !bytes.Equal(got[f.Name], want) {
			t.Fatalf("seed %d, block size %d, file %d of %d (%d blocks): bytes differ from math/rand's stream",
				seed, blockSize, i, len(files), f.Blocks)
		}
	}
}

// FuzzContents holds Contents to math/rand's stream on the catalogue
// its input decodes to: one file per byte of blocks (up to 16, each of
// that byte mod 33 blocks), blocks of 1 to 1 024 bytes, any seed.
func FuzzContents(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(7), int64(1))
	f.Add([]byte{0, 8, 0, 1}, uint16(999), int64(0))
	f.Add([]byte{32, 7, 1}, uint16(55), int64(-1))
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8}, uint16(1023), int64(math.MaxInt64))
	f.Add([]byte{5, 0, 0, 9, 13}, uint16(606), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, blocks []byte, blockSize uint16, seed int64) {
		files := make([]core.FileSpec, min(len(blocks), 16))
		for i := range files {
			files[i] = core.FileSpec{Name: fmt.Sprintf("f%d", i), Blocks: int(blocks[i]) % 33}
		}
		checkStream(t, files, 1+int(blockSize)%1024, seed)
	})
}

// lossyBulk is the catalogue of bdload's lossy-bulk workload: 16 files
// of up to 8 blocks, 64 KiB each.
func lossyBulk() []core.FileSpec { return Random(16, 8, 10, 80, 0, 1) }

func BenchmarkContents(b *testing.B) {
	files := lossyBulk()
	total := 0
	for _, f := range files {
		total += f.Blocks << 16
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	for b.Loop() {
		Contents(files, 64<<10, 1)
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for name, fn := range map[string]func(){
		"IVHS":   func() { IVHS(0, 1) },
		"Random": func() { Random(0, 1, 1, 1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad params did not panic", name)
				}
			}()
			fn()
		}()
	}
}
