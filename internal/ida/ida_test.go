package ida

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCodecParamValidation(t *testing.T) {
	cases := []struct {
		m, n int
		ok   bool
	}{
		{1, 1, true},
		{5, 10, true},
		{256, 256, true},
		{0, 5, false},
		{-1, 5, false},
		{6, 5, false},
		{200, 257, false},
	}
	for _, c := range cases {
		_, err := NewCodec(c.m, c.n)
		if (err == nil) != c.ok {
			t.Errorf("NewCodec(%d, %d): err = %v, want ok=%v", c.m, c.n, err, c.ok)
		}
	}
}

func TestDisperseReconstructAllBlocks(t *testing.T) {
	c, err := NewCodec(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox jumps over the lazy dog")
	payloads, err := c.Disperse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 10 {
		t.Fatalf("got %d payloads, want 10", len(payloads))
	}
	shards := make([]Shard, len(payloads))
	for i, p := range payloads {
		shards[i] = Shard{Seq: i, Data: p}
	}
	got, err := c.Reconstruct(shards, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestReconstructFromAnyMSubset(t *testing.T) {
	// The defining IDA property (§2.1): ANY m of the N blocks suffice.
	c, err := NewCodec(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("broadcast disks emulate storage with bandwidth")
	payloads, err := c.Disperse(data)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			for d := b + 1; d < 6; d++ {
				shards := []Shard{
					{Seq: a, Data: payloads[a]},
					{Seq: b, Data: payloads[b]},
					{Seq: d, Data: payloads[d]},
				}
				got, err := c.Reconstruct(shards, len(data))
				if err != nil {
					t.Fatalf("subset {%d,%d,%d}: %v", a, b, d, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("subset {%d,%d,%d}: wrong data", a, b, d)
				}
			}
		}
	}
}

func TestReconstructTooFewBlocks(t *testing.T) {
	c, _ := NewCodec(4, 8)
	data := []byte("0123456789abcdef")
	payloads, _ := c.Disperse(data)
	shards := []Shard{
		{Seq: 0, Data: payloads[0]},
		{Seq: 1, Data: payloads[1]},
		{Seq: 2, Data: payloads[2]},
	}
	if _, err := c.Reconstruct(shards, len(data)); err == nil {
		t.Fatal("reconstruction with m-1 blocks succeeded")
	}
}

func TestReconstructIgnoresDuplicates(t *testing.T) {
	c, _ := NewCodec(2, 4)
	data := []byte("duplicate shards must not fool the codec")
	payloads, _ := c.Disperse(data)
	shards := []Shard{
		{Seq: 1, Data: payloads[1]},
		{Seq: 1, Data: payloads[1]},
		{Seq: 1, Data: payloads[1]},
		{Seq: 3, Data: payloads[3]},
	}
	got, err := c.Reconstruct(shards, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip with duplicates failed")
	}
}

func TestReconstructRejectsBadSeq(t *testing.T) {
	c, _ := NewCodec(2, 4)
	if _, err := c.Reconstruct([]Shard{{Seq: 4, Data: []byte{0}}, {Seq: 0, Data: []byte{0}}}, 1); err == nil {
		t.Fatal("out-of-range seq accepted")
	}
}

func TestReconstructRejectsWrongSize(t *testing.T) {
	c, _ := NewCodec(2, 4)
	data := []byte("abcdef")
	payloads, _ := c.Disperse(data)
	shards := []Shard{
		{Seq: 0, Data: payloads[0][:1]},
		{Seq: 1, Data: payloads[1]},
	}
	if _, err := c.Reconstruct(shards, len(data)); err == nil {
		t.Fatal("short shard accepted")
	}
}

func TestDisperseEmptyFile(t *testing.T) {
	c, _ := NewCodec(2, 4)
	if _, err := c.Disperse(nil); err == nil {
		t.Fatal("dispersing empty file succeeded")
	}
}

func TestPaddingLengths(t *testing.T) {
	// Data whose length is not a multiple of m must round-trip exactly.
	c, _ := NewCodec(7, 13)
	for l := 1; l <= 30; l++ {
		data := make([]byte, l)
		for i := range data {
			data[i] = byte(i + l)
		}
		payloads, err := c.Disperse(data)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]Shard, 7)
		for i := 0; i < 7; i++ {
			shards[i] = Shard{Seq: i + 3, Data: payloads[i+3]}
		}
		got, err := c.Reconstruct(shards, l)
		if err != nil {
			t.Fatalf("len %d: %v", l, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("len %d: mismatch", l)
		}
	}
}

func TestQuickRandomSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(raw []byte, mSeed, nSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		m := 1 + int(mSeed)%8
		n := m + int(nSeed)%8
		c, err := NewCodec(m, n)
		if err != nil {
			return false
		}
		payloads, err := c.Disperse(raw)
		if err != nil {
			return false
		}
		idx := rng.Perm(n)[:m]
		shards := make([]Shard, m)
		for i, s := range idx {
			shards[i] = Shard{Seq: s, Data: payloads[s]}
		}
		got, err := c.Reconstruct(shards, len(raw))
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseCache(t *testing.T) {
	c, _ := NewCodec(3, 6)
	data := []byte("cache the reconstruction matrices")
	payloads, _ := c.Disperse(data)
	shards := []Shard{
		{Seq: 0, Data: payloads[0]},
		{Seq: 2, Data: payloads[2]},
		{Seq: 4, Data: payloads[4]},
	}
	if len(c.invCache) != 0 {
		t.Fatal("cache not empty initially")
	}
	if _, err := c.Reconstruct(shards, len(data)); err != nil {
		t.Fatal(err)
	}
	if len(c.invCache) != 1 {
		t.Fatalf("cache size = %d, want 1", len(c.invCache))
	}
	if _, err := c.Reconstruct(shards, len(data)); err != nil {
		t.Fatal(err)
	}
	if len(c.invCache) != 1 {
		t.Fatalf("cache size after repeat = %d, want 1", len(c.invCache))
	}
}

func TestCodecConcurrentUse(t *testing.T) {
	c, _ := NewCodec(4, 8)
	data := []byte("concurrent reconstruction must be race-free and correct")
	payloads, _ := c.Disperse(data)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(start int) {
			shards := make([]Shard, 4)
			for i := 0; i < 4; i++ {
				s := (start + i*2) % 8
				shards[i] = Shard{Seq: s, Data: payloads[s]}
			}
			got, err := c.Reconstruct(shards, len(data))
			if err == nil && !bytes.Equal(got, data) {
				err = ErrInconsistent
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkDisperse5of10_4KB(b *testing.B) {
	benchDisperse(b, 5, 10, 4096)
}

func BenchmarkDisperse20of40_4KB(b *testing.B) {
	benchDisperse(b, 20, 40, 4096)
}

func benchDisperse(b *testing.B, m, n, size int) {
	c, err := NewCodec(m, n)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Disperse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct5of10_4KB(b *testing.B) {
	benchReconstruct(b, 5, 10, 4096)
}

func BenchmarkReconstruct20of40_4KB(b *testing.B) {
	benchReconstruct(b, 20, 40, 4096)
}

func benchReconstruct(b *testing.B, m, n, size int) {
	c, err := NewCodec(m, n)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	payloads, _ := c.Disperse(data)
	shards := make([]Shard, m)
	for i := 0; i < m; i++ {
		shards[i] = Shard{Seq: n - 1 - i, Data: payloads[n-1-i]}
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reconstruct(shards, size); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the precomputed-inverse cache of §2.1. Cold reconstruction
// pays a Gauss–Jordan inversion per row subset; warm reconstruction
// reuses it.
func BenchmarkReconstructColdCache(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	ref, _ := NewCodec(20, 40)
	payloads, _ := ref.Disperse(data)
	shards := make([]Shard, 20)
	for i := 0; i < 20; i++ {
		shards[i] = Shard{Seq: 39 - i, Data: payloads[39-i]}
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCodec(20, 40) // fresh codec: empty inverse cache
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Reconstruct(shards, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructWarmCache(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	c, _ := NewCodec(20, 40)
	payloads, _ := c.Disperse(data)
	shards := make([]Shard, 20)
	for i := 0; i < 20; i++ {
		shards[i] = Shard{Seq: 39 - i, Data: payloads[39-i]}
	}
	if _, err := c.Reconstruct(shards, len(data)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reconstruct(shards, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}
