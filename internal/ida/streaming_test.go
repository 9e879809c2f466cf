package ida

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestSystematicPrefix pins the systematic property the data plane's
// throughput rests on: the first m payloads are the source blocks
// verbatim, so a fault-free decode is a straight copy.
func TestSystematicPrefix(t *testing.T) {
	c, err := NewCodec(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4*10)
	for i := range data {
		data[i] = byte(i + 1)
	}
	payloads, err := c.DisperseInto(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if !bytes.Equal(payloads[j], data[j*10:(j+1)*10]) {
			t.Fatalf("systematic payload %d differs from source block", j)
		}
	}
}

// TestDisperseIntoZeroLength: an empty file has no source blocks.
func TestDisperseIntoZeroLength(t *testing.T) {
	c, _ := NewCodec(2, 4)
	if _, err := c.DisperseInto(nil, nil); err == nil {
		t.Fatal("DisperseInto(nil) succeeded")
	}
	if _, err := c.DisperseInto([]byte{}, make([][]byte, 4)); err == nil {
		t.Fatal("DisperseInto(empty) succeeded")
	}
}

// TestReconstructIntoMatchesReconstruct drives a fresh decode and one
// into a destination buffer reused across iterations over random fault
// patterns (random m-subsets of surviving shards) and asserts identical
// output.
func TestReconstructIntoMatchesReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	params := []struct{ m, n int }{{1, 3}, {2, 4}, {3, 6}, {5, 10}, {8, 12}}
	lengths := []int{1, 7, 8, 9, 64, 65, 257, 4096}
	for _, p := range params {
		c, err := NewCodec(p.m, p.n)
		if err != nil {
			t.Fatal(err)
		}
		var dst []byte
		for _, l := range lengths {
			data := make([]byte, l)
			rng.Read(data)
			payloads, err := c.DisperseInto(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 8; trial++ {
				idx := rng.Perm(p.n)[:p.m]
				shards := make([]Shard, p.m)
				for i, s := range idx {
					shards[i] = Shard{Seq: s, Data: payloads[s]}
				}
				want, err := c.ReconstructInto(shards, l, nil)
				if err != nil {
					t.Fatal(err)
				}
				dst, err = c.ReconstructInto(shards, l, dst[:0])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("(%d,%d) len %d subset %v: a reused buffer differs from a fresh one",
						p.m, p.n, l, idx)
				}
				if !bytes.Equal(dst, data) {
					t.Fatalf("(%d,%d) len %d subset %v: wrong data", p.m, p.n, l, idx)
				}
			}
		}
	}
}

// TestReconstructInPlace: over an (m, n) grid — every m-subset where
// C(n, m) ≤ 5 000, 500 random ones elsewhere — ReconstructInto with the
// subset's systematic shards already in dst's own rows returns the bytes
// it returns from copies and overwrites every other row. The rows in
// place are only read: a goroutine reads them meanwhile, so under -race
// a write to one is reported.
func TestReconstructInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	grid := []struct{ m, n int }{{1, 1}, {1, 4}, {2, 2}, {2, 5}, {3, 6}, {4, 6}, {4, 12}, {5, 9}, {6, 14}, {8, 10}, {8, 16}}
	for _, p := range grid {
		c, err := NewCodec(p.m, p.n)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 13*p.m-5)
		rng.Read(data)
		payloads, err := c.DisperseInto(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := len(payloads[0])
		for _, subset := range subsets(rng, p.n, p.m, 5000, 500) {
			copies := make([]Shard, p.m)
			shards := make([]Shard, p.m)
			dst := bytes.Repeat([]byte{0xa5}, p.m*l)
			var placed [][]byte
			for i, s := range subset {
				copies[i] = Shard{Seq: s, Data: payloads[s]}
				shards[i] = copies[i]
				if s < p.m {
					row := dst[s*l : (s+1)*l]
					copy(row, payloads[s])
					shards[i].Data = row
					placed = append(placed, row)
				}
			}
			want, err := c.ReconstructInto(copies, len(data), nil)
			if err != nil {
				t.Fatal(err)
			}
			read := make(chan byte)
			go func() {
				var x byte
				for _, row := range placed {
					for _, b := range row {
						x ^= b
					}
				}
				read <- x
			}()
			got, err := c.ReconstructInto(shards, len(data), dst)
			<-read
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(got, data) || &got[0] != &dst[0] {
				t.Fatalf("(%d,%d) subset %v: in-place reconstruction differs from the copies' or left dst", p.m, p.n, subset)
			}
		}
	}
}

// subsets returns every k-subset of [0, n) when there are at most limit,
// and otherwise sample random ones.
func subsets(rng *rand.Rand, n, k, limit, sample int) [][]int {
	var all [][]int
	var walk func(from int, cur []int) bool
	walk = func(from int, cur []int) bool {
		if len(cur) == k {
			all = append(all, append([]int(nil), cur...))
			return len(all) <= limit
		}
		for s := from; s < n; s++ {
			if !walk(s+1, append(cur, s)) {
				return false
			}
		}
		return true
	}
	if walk(0, nil) {
		return all
	}
	all = all[:0]
	for range sample {
		all = append(all, rng.Perm(n)[:k])
	}
	return all
}

// TestInverseCacheLRUEviction demonstrates the bound under subset churn:
// with a limit of 2, touching a third distinct subset evicts the least
// recently used one, and the cache never exceeds the limit.
func TestInverseCacheLRUEviction(t *testing.T) {
	c, err := NewCodec(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	c.invLimit = 2
	data := []byte("bounded inverse cache under client churn")
	payloads, err := c.DisperseInto(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	recon := func(a, b int) {
		t.Helper()
		shards := []Shard{{Seq: a, Data: payloads[a]}, {Seq: b, Data: payloads[b]}}
		got, err := c.ReconstructInto(shards, len(data), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("subset {%d,%d}: wrong data", a, b)
		}
	}
	recon(0, 1) // subset A
	recon(2, 3) // subset B
	if got := len(c.invCache); got != 2 {
		t.Fatalf("cache size = %d, want 2", got)
	}
	recon(0, 1) // touch A: B becomes LRU
	recon(4, 5) // subset C evicts B
	if got := len(c.invCache); got != 2 {
		t.Fatalf("cache size after churn = %d, want 2", got)
	}
	// Every subset still reconstructs correctly whether cached or not,
	// and the cache stays at its bound through sustained churn.
	for trial := 0; trial < 20; trial++ {
		a := trial % 5
		recon(a, a+1)
		if got := len(c.invCache); got > 2 {
			t.Fatalf("cache size %d exceeds limit 2", got)
		}
	}
}

// TestSharedCodecIdentity: Shared returns one codec per (m, n), so the
// §2.1 inverse cache accumulates across retrievals.
func TestSharedCodecIdentity(t *testing.T) {
	a, err := Shared(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shared(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Shared(3,7) returned distinct codecs")
	}
	if _, err := Shared(0, 7); err == nil {
		t.Fatal("Shared(0,7) succeeded")
	}
}

// TestSharedRegistryBounded: a forged M = 1 block completes a
// reconstruction on its own, so forged headers can name a new (M, N)
// pair with every frame. Four goroutines forge the 511 pairs with M ≤ 2
// between them: the registry never passes its cap and ends at it, and a
// genuine retrieval running beside them stays byte-exact.
func TestSharedRegistryBounded(t *testing.T) {
	data := bytes.Repeat([]byte("genuine file "), 40)
	genuine, err := DisperseFile(7, data, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pair := g; pair < 511; pair += 4 {
				m, n := 1+pair/256, 1+pair/256+pair%256
				forged := Block{FileID: 9, M: uint16(m), N: uint16(n), Length: uint32(5 * m)}
				var blocks []*Block
				for seq := 0; seq < m; seq++ {
					forged.Seq, forged.Payload = uint16(seq), []byte("forge")
					var b Block
					if err := UnmarshalInto(forged.MarshalInto(nil), &b); err != nil {
						t.Error(err)
						return
					}
					blocks = append(blocks, &b)
				}
				if _, err := ReconstructFileInto(blocks, nil); err != nil {
					t.Errorf("forged (%d, %d): %v", m, n, err)
				}
				codecsMu.RLock()
				size := len(codecs)
				codecsMu.RUnlock()
				if size > sharedCodecs {
					t.Errorf("after forged (%d, %d): %d codecs registered, cap %d", m, n, size, sharedCodecs)
				}
			}
		}()
	}
	var dst []byte
	for i := 0; i < 64; i++ {
		if dst, err = ReconstructFileInto([]*Block{genuine[5], genuine[1], genuine[4], genuine[3]}, dst); err != nil || !bytes.Equal(dst, data) {
			t.Errorf("retrieval %d beside the forgers: err %v, byte-exact %v", i, err, bytes.Equal(dst, data))
			break
		}
	}
	wg.Wait()
	if len(codecs) != sharedCodecs {
		t.Fatalf("%d codecs registered after 511 pairs, want the cap %d", len(codecs), sharedCodecs)
	}
}

// TestMarshalIntoRoundTrip checks MarshalInto against Marshal and
// UnmarshalInto against Unmarshal, including scratch-payload reuse.
func TestMarshalIntoRoundTrip(t *testing.T) {
	blk := &Block{FileID: 42, Seq: 3, M: 2, N: 5, Length: 11, Payload: []byte("hello w")}
	wire := blk.MarshalInto(nil)
	if got := blk.MarshalInto(nil); !bytes.Equal(got, wire) {
		t.Fatal("MarshalInto(nil) differs from Marshal")
	}
	if got, want := len(wire), headerSize+len(blk.Payload); got != want {
		t.Fatalf("wire form is %d bytes, want %d", got, want)
	}
	// Appending after a prefix leaves the prefix intact.
	buf := append([]byte("prefix"), 0)
	buf = buf[:6]
	out := blk.MarshalInto(buf)
	if !bytes.Equal(out[:6], []byte("prefix")) || !bytes.Equal(out[6:], wire) {
		t.Fatal("MarshalInto(prefix) corrupted output")
	}
	// Reused buffer: second marshal overwrites the first.
	buf2 := blk.MarshalInto(nil)
	blk2 := &Block{FileID: 7, Seq: 1, M: 1, N: 2, Length: 3, Payload: []byte("xyz")}
	buf2 = blk2.MarshalInto(buf2[:0])
	var got2 Block
	if err := UnmarshalInto(buf2, &got2); err != nil {
		t.Fatal(err)
	}
	if got2.FileID != 7 || !bytes.Equal(got2.Payload, []byte("xyz")) {
		t.Fatal("reused-buffer marshal round trip failed")
	}

	var scratch Block
	scratch.Payload = make([]byte, 0, 64)
	if err := UnmarshalInto(wire, &scratch); err != nil {
		t.Fatal(err)
	}
	if scratch.FileID != 42 || scratch.Seq != 3 || scratch.M != 2 || scratch.N != 5 ||
		scratch.Length != 11 || !bytes.Equal(scratch.Payload, blk.Payload) {
		t.Fatalf("UnmarshalInto mismatch: %+v", scratch)
	}
	// The scratch payload must be a copy, not an alias of the wire buffer.
	wire[headerSize] ^= 0xff
	if !bytes.Equal(scratch.Payload, blk.Payload) {
		t.Fatal("UnmarshalInto aliased the wire buffer")
	}
	// Decoding again reuses the scratch's payload buffer.
	kept := &scratch.Payload[0]
	if err := UnmarshalInto(blk.MarshalInto(nil), &scratch); err != nil || &scratch.Payload[0] != kept {
		t.Fatalf("second UnmarshalInto: err %v, payload buffer reused %v", err, &scratch.Payload[0] == kept)
	}
}

// TestUnmarshalIntoRejectsCorruption mirrors Unmarshal's checksum and
// framing contracts on the scratch path.
func TestUnmarshalIntoRejectsCorruption(t *testing.T) {
	blk := &Block{FileID: 1, Seq: 0, M: 1, N: 1, Length: 4, Payload: []byte("data")}
	wire := blk.MarshalInto(nil)
	var scratch Block
	if err := UnmarshalInto(wire[:headerSize-1], &scratch); err == nil {
		t.Fatal("short block accepted")
	}
	bad := append([]byte(nil), wire...)
	bad[len(bad)-1] ^= 0x01
	if err := UnmarshalInto(bad, &scratch); err == nil {
		t.Fatal("corrupted block accepted")
	}
}

// FuzzDisperseReconstruct round-trips arbitrary data through the
// streaming codec under a shard subset derived from the fuzz input. The
// code is R ranges of w blocks wide, each range encoded on its own as a
// cluster's homes do: together they are the reference code, and any m
// blocks of the union reconstruct.
func FuzzDisperseReconstruct(f *testing.F) {
	f.Add([]byte("seed data for the codec"), uint8(3), uint8(2), uint16(0x2d))
	f.Add([]byte{0}, uint8(1), uint8(1), uint16(1))
	f.Add([]byte("two homes, parity on the second"), uint8(2), uint8(8+1), uint16(0x1f0))
	f.Add([]byte("three homes"), uint8(4), uint8(16+3), uint16(0x9248))
	f.Fuzz(func(t *testing.T, data []byte, mSeed, extra uint8, pick uint16) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(mSeed)%8
		w := m + int(extra)%8
		n := w * (1 + int(extra>>3)%3)
		c, err := Shared(m, n)
		if err != nil {
			t.Fatal(err)
		}
		whole := reference(c, data)
		payloads := make([][]byte, 0, n)
		for first := 0; first < n; first += w {
			blocks, _, err := disperseRange(c, 1, data, first, first+w)
			if err != nil {
				t.Fatal(err)
			}
			for k, b := range blocks {
				if int(b.Seq) != first+k || int(b.N) != n || !bytes.Equal(b.Payload, whole[first+k]) {
					t.Fatalf("block %d of range [%d,%d) is %d of %d, or not the block the whole code has there (m=%d)", k, first, first+w, b.Seq, b.N, m)
				}
				payloads = append(payloads, b.Payload)
			}
		}
		// Choose m distinct shards from the pick bitmask, topping up from
		// the low sequence numbers when the mask is too sparse. A chosen
		// systematic shard s is already in its row of dst when bit 8+s of
		// pick is set.
		var shards []Shard
		used := make([]bool, n)
		for s := 0; s < n && len(shards) < m; s++ {
			if pick&(1<<uint(s%16)) != 0 {
				shards = append(shards, Shard{Seq: s, Data: payloads[s]})
				used[s] = true
			}
		}
		for s := 0; s < n && len(shards) < m; s++ {
			if !used[s] {
				shards = append(shards, Shard{Seq: s, Data: payloads[s]})
			}
		}
		l := len(payloads[0])
		dst := make([]byte, m*l)
		for i, sh := range shards {
			if sh.Seq < m && pick&(1<<uint(8+sh.Seq)) != 0 {
				row := dst[sh.Seq*l : (sh.Seq+1)*l]
				copy(row, sh.Data)
				shards[i].Data = row
			}
		}
		got, err := c.ReconstructInto(shards, len(data), dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) || &got[0] != &dst[0] {
			t.Fatalf("round trip mismatch or dst not reused (m=%d n=%d len=%d)", m, n, len(data))
		}
	})
}
