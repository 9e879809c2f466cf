package ida

import (
	"fmt"
	"math"

	"pinbcast/internal/gf256"
)

// errTooLong refuses a file whose length a block's 32-bit Length field
// cannot hold: its frames would pass their checksums and rebuild the
// length modulo 2³² bytes.
var errTooLong = fmt.Errorf("%w: a file longer than %d bytes overflows a block's Length", ErrBadParams, uint32(math.MaxUint32))

// FrameLen returns the length of each frame, header and payload, a
// file of n bytes disperses into, or why it cannot be dispersed: an
// empty file has no source blocks, and a block's Length is 32 bits
// wide. Every entry asks it before sizing a buffer, and so does a
// caller sizing the slab it hands DisperseFramesRange.
//
//pinlint:hotpath
func (c *Codec) FrameLen(n int) (int, error) {
	if n == 0 {
		return 0, ErrEmptyFile
	}
	if uint64(n) > math.MaxUint32 {
		return 0, errTooLong
	}
	return headerSize + c.shardLen(n), nil
}

// disperseRows is the codec's one encode loop: it writes rows [first,
// first+len(out)) of data's dispersal into out, payload i − first being
// Σⱼ mat[i][j]·sourceⱼ, the dispersal operation of Figure 3. Every
// payload is shardLen(len(data)) bytes, and payloads alias neither
// data nor each other. The rows of a systematic Vandermonde matrix do
// not depend on n, so a row range of a wide codec is a share of one
// code that several senders split between them — any m blocks of the
// union reconstruct.
//
//pinlint:hotpath
func (c *Codec) disperseRows(data []byte, out [][]byte, first int) {
	l, end := len(out[0]), first+len(out)
	// Systematic rows: payload j = source block j, zero-padded.
	for k := range out[:max(0, min(len(out), c.m-first))] {
		copySourceBlock(out[k], data, first+k, l)
	}
	if end <= c.m {
		return
	}
	// Source blocks past the end of data are entirely zero and add
	// nothing, so each sum stops at the last block with data. From row 0
	// on, the systematic copies are those sources, the partial tail
	// padded; any other range reads the blocks it lacks from the file,
	// where the last may be short.
	live := (len(data) + l - 1) / l
	var srcs [][]byte
	if first == 0 {
		srcs = out[:live]
	} else {
		var views [256][]byte
		srcs = views[:live]
		for j := range srcs {
			if k := j - first; k >= 0 && k < len(out) {
				srcs[j] = out[k]
			} else {
				srcs[j] = data[j*l : min((j+1)*l, len(data))]
			}
		}
	}
	full := live
	if len(srcs[live-1]) < l {
		full-- // block 0 always has l bytes, so full ≥ 1
	}
	// Redundant rows: one fused pass each, plus the short tail.
	for i := max(first, c.m); i < end; i++ {
		row, dst := c.mat.Row(i), out[i-first]
		gf256.MulSumSlice(row[:full], srcs[:full], dst)
		if full < live {
			gf256.MulAddSlice(row[full], srcs[full], dst[:len(srcs[full])])
		}
	}
}

// DisperseInto disperses data into dst, reusing dst's backing arrays
// when they have capacity, and returns dst resliced to the n payloads
// of shardLen(len(data)) bytes each. A nil dst (or one with too little
// capacity) grows as needed, so steady-state callers that pass the
// previous cycle's result back in disperse with zero allocations. An
// empty file is refused with ErrEmptyFile, one longer than
// math.MaxUint32 bytes with an error wrapping ErrBadParams.
//
// Ownership: the returned payload slices belong to the caller; the
// codec retains no reference to them or to data. Payload j < m aliases
// nothing (it is a copy of source block j), so mutating data afterwards
// does not corrupt the shards. Payloads must not alias data or each
// other.
//
//pinlint:hotpath
func (c *Codec) DisperseInto(data []byte, dst [][]byte) ([][]byte, error) {
	wire, err := c.FrameLen(len(data))
	if err != nil {
		return nil, err
	}
	dst = growPayloads(dst, c.n, wire-headerSize) //pinlint:allow hotpath — first-cycle growth; steady state passes capacity back in
	c.disperseRows(data, dst, 0)
	return dst, nil
}

// DisperseBatch disperses each files[f] into dst[f] with DisperseInto
// and returns dst resliced to len(files) entries of n payloads each,
// reusing its backing arrays the same way. Any file DisperseInto
// refuses fails the whole call.
//
//pinlint:hotpath
func (c *Codec) DisperseBatch(files [][]byte, dst [][][]byte) ([][][]byte, error) {
	if cap(dst) >= len(files) {
		dst = dst[:len(files)]
	} else {
		grown := make([][][]byte, len(files)) //pinlint:allow hotpath — first-cycle growth; steady state passes capacity back in
		copy(grown, dst)
		dst = grown
	}
	for f, data := range files {
		out, err := c.DisperseInto(data, dst[f])
		if err != nil {
			return nil, err
		}
		dst[f] = out
	}
	return dst, nil
}

// DisperseFramesRange disperses blocks [first, end) of data (0 ≤ first
// < end ≤ n; the whole code is 0, n) under identifier id straight into
// wire form, in storage the caller gives it: blocks and frames hold
// end − first entries, and slab that many frames of FrameLen(len(data))
// bytes. blocks[k] becomes block first+k, with its own number in Seq
// and the codec's full width in N, and frames[k] its frame, the k-th
// frame of slab with its capacity cut at its end, so an append to one
// frame cannot reach the next. It refuses the files FrameLen does, and
// storage of any other size with ErrBadParams. A range that starts at
// or past m holds no systematic block. The payloads are encoded into
// the frames' payload regions and every header and CRC-32 is then
// sealed in place, so each block exists once: blocks[k].Payload aliases
// frames[k][headerSize:]. Blocks and frames are meant to be shared from
// here on — copy before mutating either — and any one of them keeps the
// whole slab alive: a server build hands one slab to all its small files
// and a slab of its own to each large one (server.NewSplit).
func (c *Codec) DisperseFramesRange(id uint32, data []byte, first, end int, slab []byte, blocks []Block, frames [][]byte) error {
	wire, err := c.FrameLen(len(data))
	if err != nil {
		return err
	}
	if rows := end - first; first < 0 || rows <= 0 || end > c.n || len(blocks) != rows || len(frames) != rows || len(slab) != rows*wire {
		return fmt.Errorf("%w (blocks [%d,%d) of %d into %d blocks, %d frames, %d bytes)", ErrBadParams, first, end, c.n, len(blocks), len(frames), len(slab))
	}
	// frames holds the payload regions while the rows are encoded, then
	// the whole frames as they are sealed.
	for k := range frames {
		frames[k] = slab[k*wire+headerSize : (k+1)*wire : (k+1)*wire]
	}
	c.disperseRows(data, frames, first)
	for k := range frames {
		frames[k] = slab[k*wire : (k+1)*wire : (k+1)*wire]
		blocks[k] = Block{FileID: id, Seq: uint16(first + k), M: uint16(c.m), N: uint16(c.n), Length: uint32(len(data)), Payload: frames[k][headerSize:]}
		blocks[k].seal(frames[k])
	}
	return nil
}

// growPayloads reslices dst to n payloads of l bytes each, reusing
// backing arrays with capacity and allocating the rest.
//
//pinlint:hotpath
func growPayloads(dst [][]byte, n, l int) [][]byte {
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		grown := make([][]byte, n) //pinlint:allow hotpath — first-cycle growth; steady state passes capacity back in
		copy(grown, dst)
		dst = grown
	}
	for i := range dst {
		if cap(dst[i]) >= l {
			dst[i] = dst[i][:l]
		} else {
			dst[i] = make([]byte, l) //pinlint:allow hotpath — first-cycle growth; steady state passes capacity back in
		}
	}
	return dst
}

// copySourceBlock writes source block j of data — bytes [j·l, (j+1)·l),
// zero-padded past the end of data — into out (len l).
//
//pinlint:hotpath
func copySourceBlock(out, data []byte, j, l int) {
	lo := j * l
	if lo >= len(data) {
		clear(out)
		return
	}
	n := copy(out, data[lo:])
	clear(out[n:])
}
