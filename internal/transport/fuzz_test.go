package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame hammers the frame decoder with arbitrary byte strings:
// truncated headers, truncated payloads, corrupt and oversized declared
// lengths. The decoder must never panic or over-allocate; any frame it
// does accept must round-trip through AppendFrame bit-identically.
func FuzzReadFrame(f *testing.F) {
	// A well-formed data frame and a well-formed idle frame.
	data, _ := AppendFrame(nil, 7, []byte("self-identifying block"))
	f.Add(data)
	idle, _ := AppendFrame(nil, 9, nil)
	f.Add(idle)
	// Truncated header, truncated payload, oversized declared length.
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 4, 'a', 'b'})
	var over [frameHeaderSize]byte
	binary.BigEndian.PutUint32(over[4:], MaxFramePayload+1)
	f.Add(over[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		// A 16-byte buffer puts the header and short payloads on the
		// reuse path and longer payloads on the grow path.
		slot, payload, err := ReadFrame(bytes.NewReader(data), make([]byte, 0, 16))
		if err != nil {
			return // rejected input: only invariant is "no panic"
		}
		if len(payload) > MaxFramePayload {
			t.Fatalf("accepted %d-byte payload beyond MaxFramePayload", len(payload))
		}
		if len(data) < frameHeaderSize+len(payload) {
			t.Fatalf("decoded %d payload bytes from %d input bytes", len(payload), len(data))
		}
		if want := binary.BigEndian.Uint32(data[4:]); int(want) != len(payload) {
			t.Fatalf("payload length %d != declared %d", len(payload), want)
		}
		out, err := AppendFrame(nil, slot, payload)
		if err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		if !bytes.Equal(out, data[:frameHeaderSize+len(payload)]) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data[:frameHeaderSize+len(payload)], out)
		}
	})
}
