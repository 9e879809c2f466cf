// Package ida implements Rabin's Information Dispersal Algorithm (IDA)
// and Bestavros's Adaptive IDA (AIDA) as described in §2 of Baruah &
// Bestavros, "Pinwheel Scheduling for Fault-tolerant Broadcast Disks in
// Real-time Database Systems".
//
// A file of m blocks is dispersed into N ≥ m blocks by an N×m linear
// transformation over GF(2⁸) whose every m×m row-submatrix is invertible
// (a Vandermonde matrix, package gfmat). Any m of the N dispersed blocks
// reconstruct the file exactly. AIDA's bandwidth-allocation step then
// chooses how many of the N blocks, n ∈ [m, N], are actually transmitted,
// trading bandwidth for fault tolerance: transmitting n blocks tolerates
// n−m erasures per broadcast period.
package ida

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Block is a self-identifying dispersed block (§2.1): it carries the
// identity of the data item it belongs to and its sequence number among
// the dispersed blocks, so a client can select the correct inverse
// transformation without a broadcast directory.
type Block struct {
	FileID  uint32 // identity of the data item this block belongs to
	Seq     uint16 // index of this block among the N dispersed blocks
	M       uint16 // reconstruction threshold: any M blocks suffice
	N       uint16 // dispersal width: file was dispersed into N blocks
	Length  uint32 // length in bytes of the original file
	Payload []byte
}

// headerSize is the number of bytes of metadata prepended to each block
// payload by Marshal: fileID(4) + seq(2) + m(2) + n(2) + length(4) +
// payloadLen(4) + crc(4).
const headerSize = 4 + 2 + 2 + 2 + 4 + 4 + 4

// Common block encoding/decoding errors.
var (
	ErrShortBlock   = errors.New("ida: block too short to contain a header")
	ErrBadChecksum  = errors.New("ida: block checksum mismatch")
	ErrInconsistent = errors.New("ida: blocks disagree on file metadata")
)

// MarshalInto appends the wire form of the block to dst and returns the
// extended slice: a self-contained byte string with a CRC-32 covering
// header and payload, allowing clients to detect blocks clobbered by
// transmission errors (the paper's §3.2 error model: an error renders the
// entire block unreadable). Pass nil for a fresh slice, or dst[:0] of a
// reused buffer to overwrite in place; the block itself is not retained.
func (b *Block) MarshalInto(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	dst = append(dst, b.Payload...)
	b.seal(dst[start:])
	return dst
}

// seal writes the block's header and CRC-32 into frame[:headerSize]
// around the payload already in place at frame[headerSize:] — the one
// header writer behind MarshalInto and DisperseFramesRange.
func (b *Block) seal(frame []byte) {
	binary.BigEndian.PutUint32(frame[0:], b.FileID)
	binary.BigEndian.PutUint16(frame[4:], b.Seq)
	binary.BigEndian.PutUint16(frame[6:], b.M)
	binary.BigEndian.PutUint16(frame[8:], b.N)
	binary.BigEndian.PutUint32(frame[10:], b.Length)
	binary.BigEndian.PutUint32(frame[14:], uint32(len(frame)-headerSize))
	crc := crc32.ChecksumIEEE(frame[:headerSize-4])
	crc = crc32.Update(crc, crc32.IEEETable, frame[headerSize:])
	binary.BigEndian.PutUint32(frame[18:], crc)
}

// ReadHeader sets b's metadata fields from the header of a frame encoded
// with MarshalInto, leaving Payload alone, and returns the payload length
// the header declares; a frame too short to hold a header sets nothing
// and returns -1. Nothing is verified: the fields are the frame's claim
// until UnmarshalInto checks its checksum, which makes them good for
// choosing where to decode it.
//
//pinlint:hotpath
func (b *Block) ReadHeader(frame []byte) int {
	if len(frame) < headerSize {
		return -1
	}
	b.FileID = binary.BigEndian.Uint32(frame[0:])
	b.Seq = binary.BigEndian.Uint16(frame[4:])
	b.M = binary.BigEndian.Uint16(frame[6:])
	b.N = binary.BigEndian.Uint16(frame[8:])
	b.Length = binary.BigEndian.Uint32(frame[10:])
	return int(binary.BigEndian.Uint32(frame[14:]))
}

// UnmarshalInto decodes a block previously encoded with Marshal into b,
// verifying its checksum (a corrupted block yields ErrBadChecksum) before
// it writes anything: on error b and its payload bytes are untouched. b's
// existing Payload backing array is reused when large enough, so a
// receive loop decoding into the same scratch block runs
// allocation-free, and one whose Payload is a row of a larger buffer
// decodes straight into that row. The payload is copied out of data; b
// does not alias it.
//
//pinlint:hotpath
func UnmarshalInto(data []byte, b *Block) error {
	var h Block
	payloadLen := h.ReadHeader(data)
	if payloadLen < 0 {
		return ErrShortBlock
	}
	if len(data) != headerSize+payloadLen {
		return fmt.Errorf("ida: block length %d does not match declared payload %d: %w", //pinlint:allow hotpath — malformed frame, cold path
			len(data), payloadLen, ErrShortBlock) //pinlint:allow hotpath — the ints box only when the malformed-frame error is built
	}
	crc := crc32.ChecksumIEEE(data[:headerSize-4])
	crc = crc32.Update(crc, crc32.IEEETable, data[headerSize:])
	if crc != binary.BigEndian.Uint32(data[18:]) {
		return ErrBadChecksum
	}
	h.Payload = append(b.Payload[:0], data[headerSize:]...)
	*b = h
	return nil
}

// validate checks internal consistency of the block metadata.
func (b *Block) validate() error {
	switch {
	case b.M == 0:
		return errors.New("ida: block has M == 0")
	case b.N < b.M:
		return fmt.Errorf("ida: block has N (%d) < M (%d)", b.N, b.M)
	case int(b.Seq) >= int(b.N):
		return fmt.Errorf("ida: block seq %d out of range [0,%d)", b.Seq, b.N)
	}
	return nil
}
