package ida

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestBlockMarshalRoundTrip(t *testing.T) {
	b := &Block{
		FileID:  77,
		Seq:     3,
		M:       5,
		N:       10,
		Length:  1234,
		Payload: []byte("payload bytes"),
	}
	var got Block
	if err := UnmarshalInto(b.MarshalInto(nil), &got); err != nil {
		t.Fatal(err)
	}
	if got.FileID != b.FileID || got.Seq != b.Seq || got.M != b.M ||
		got.N != b.N || got.Length != b.Length || !bytes.Equal(got.Payload, b.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, b)
	}
}

func TestBlockMarshalRoundTripQuick(t *testing.T) {
	f := func(id uint32, seq, m, n uint16, length uint32, payload []byte) bool {
		b := &Block{FileID: id, Seq: seq, M: m, N: n, Length: length, Payload: payload}
		var got Block
		if err := UnmarshalInto(b.MarshalInto(nil), &got); err != nil {
			return false
		}
		return got.FileID == id && got.Seq == seq && got.M == m && got.N == n &&
			got.Length == length && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalDetectsCorruption(t *testing.T) {
	b := &Block{FileID: 1, Seq: 0, M: 2, N: 4, Length: 10, Payload: []byte("0123456789")}
	raw := b.MarshalInto(nil)
	for pos := 0; pos < len(raw); pos++ {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0xff
		if err := UnmarshalInto(bad, new(Block)); err == nil {
			// Flipping the payload-length field may produce a length error
			// instead of a checksum error, but it must never succeed.
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
}

func TestUnmarshalShortBlock(t *testing.T) {
	if err := UnmarshalInto([]byte{1, 2, 3}, new(Block)); err == nil {
		t.Fatal("short block accepted")
	}
}

func TestUnmarshalTruncatedPayload(t *testing.T) {
	b := &Block{FileID: 1, Seq: 0, M: 1, N: 1, Length: 4, Payload: []byte("abcd")}
	raw := b.MarshalInto(nil)
	if err := UnmarshalInto(raw[:len(raw)-2], new(Block)); err == nil {
		t.Fatal("truncated block accepted")
	}
}

func TestBlockValidate(t *testing.T) {
	cases := []struct {
		b  Block
		ok bool
	}{
		{Block{M: 1, N: 1, Seq: 0}, true},
		{Block{M: 5, N: 10, Seq: 9}, true},
		{Block{M: 0, N: 1, Seq: 0}, false},
		{Block{M: 5, N: 4, Seq: 0}, false},
		{Block{M: 2, N: 4, Seq: 4}, false},
	}
	for i, c := range cases {
		if err := c.b.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestDisperseFileReconstructFile(t *testing.T) {
	data := []byte("self-identifying blocks allow clients to pick the inverse")
	blocks, err := DisperseFile(9, data, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 9 {
		t.Fatalf("got %d blocks, want 9", len(blocks))
	}
	for i, b := range blocks {
		if int(b.Seq) != i || b.FileID != 9 || int(b.M) != 4 || int(b.N) != 9 {
			t.Fatalf("block %d has wrong identity: %+v", i, b)
		}
	}
	// Reconstruct from an arbitrary 4-subset, out of order.
	got, err := ReconstructFileInto([]*Block{blocks[7], blocks[2], blocks[5], blocks[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("mismatch: %q", got)
	}
}

func TestReconstructFileInconsistent(t *testing.T) {
	dataA := []byte("file A contents")
	dataB := []byte("file B contents")
	ba, _ := DisperseFile(1, dataA, 2, 4)
	bb, _ := DisperseFile(2, dataB, 2, 4)
	if _, err := ReconstructFileInto([]*Block{ba[0], bb[1]}, nil); err != ErrInconsistent {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestReconstructFileEmpty(t *testing.T) {
	if _, err := ReconstructFileInto(nil, nil); err == nil {
		t.Fatal("empty block list accepted")
	}
}

func BenchmarkBlockMarshal(b *testing.B) {
	blk := &Block{FileID: 1, Seq: 2, M: 5, N: 10, Length: 4096, Payload: make([]byte, 820)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.MarshalInto(nil)
	}
}

func BenchmarkBlockUnmarshal(b *testing.B) {
	blk := &Block{FileID: 1, Seq: 2, M: 5, N: 10, Length: 4096, Payload: make([]byte, 820)}
	raw := blk.MarshalInto(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalInto(raw, new(Block)); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzBlockFrame: sealing a header around a payload already in place
// produces exactly MarshalInto's bytes for any block, the frame decodes
// back to the block, and UnmarshalInto on arbitrary bytes returns an
// error or a block that re-marshals to those bytes — it never panics.
func FuzzBlockFrame(f *testing.F) {
	f.Add(uint32(7), uint16(1), uint16(2), uint16(4), uint32(9), []byte("payload"))
	f.Add(uint32(0), uint16(0), uint16(0), uint16(0), uint32(0), []byte{})
	f.Add(uint32(1), uint16(2), uint16(3), uint16(4), uint32(5), (&Block{FileID: 9, Payload: []byte{1, 2, 3}}).MarshalInto(nil))
	f.Fuzz(func(t *testing.T, id uint32, seq, m, n uint16, length uint32, payload []byte) {
		b := Block{FileID: id, Seq: seq, M: m, N: n, Length: length, Payload: payload}
		want := b.MarshalInto(nil)
		frame := make([]byte, headerSize+len(payload))
		copy(frame[headerSize:], payload)
		b.seal(frame)
		if !bytes.Equal(frame, want) {
			t.Fatalf("sealed in place %x, MarshalInto %x", frame, want)
		}
		var got Block
		if err := UnmarshalInto(frame, &got); err != nil {
			t.Fatal(err)
		}
		if got.FileID != id || got.Seq != seq || got.M != m || got.N != n || got.Length != length ||
			!bytes.Equal(got.Payload, payload) {
			t.Fatalf("decoded %+v, sealed %+v", got, b)
		}
		if len(frame) > headerSize {
			frame[len(frame)-1] ^= 1
			if err := UnmarshalInto(frame, &got); !errors.Is(err, ErrBadChecksum) {
				t.Fatalf("flipped payload bit: err = %v, want ErrBadChecksum", err)
			}
		}
		var any Block
		if err := UnmarshalInto(payload, &any); err == nil && !bytes.Equal(any.MarshalInto(nil), payload) {
			t.Fatalf("arbitrary bytes %x decoded to a block marshaling to %x", payload, any.MarshalInto(nil))
		}
	})
}
