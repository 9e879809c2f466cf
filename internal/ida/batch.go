package ida

import (
	"fmt"

	"pinbcast/internal/gf256"
)

// Cross-file batch encoding. A broadcast server disperses every file of
// the program through the same few codecs, and the per-file encode loop
// walks the coefficient tables once per file: with F files at (m, n),
// each of the (n−m)·m product tables is walked F separate times, and
// per-call setup is paid F times. DisperseBatch inverts the loop nest —
// coefficient outer, files inner — so one product table serves a run of
// files before the next is loaded. The inversion is tiled: coefficient-
// major order re-streams every file's blocks once per coefficient, so
// it only wins while the tile's payloads fit in cache. Files are
// greedily packed into tiles of at most batchTileBytes of payload
// (small files batch wide, large files degrade to the per-file order
// that keeps their own blocks resident).

// batchTileBytes bounds the payload working set of one encode tile:
// every source and redundant block of the tile's files should stay
// resident while the coefficient loop re-streams them. Half a typical
// per-core L2 leaves room for the destination write-allocate traffic.
const batchTileBytes = 256 << 10

// DisperseBatch disperses each files[f] into dst[f], reusing dst's
// backing arrays exactly as DisperseInto does, and returns dst resliced
// to len(files) entries of n payloads each. Files may have different
// lengths; file f's payloads are shardLen(len(files[f])) bytes. The
// batch is all-or-nothing: any empty file rejects the whole call.
//
// Ownership follows DisperseInto: the returned payloads belong to the
// caller, alias neither the inputs nor each other, and the codec
// retains no reference to them.
//
//pinlint:hotpath
func (c *Codec) DisperseBatch(files [][]byte, dst [][][]byte) ([][][]byte, error) {
	return c.disperseRows(files, dst, 0, c.n)
}

// disperseRows is DisperseBatch for rows [first, end) of the dispersal
// matrix only: dst[f] gets end−first payloads, payload k that of block
// first+k. The rows of a systematic Vandermonde matrix do not depend on
// n, so a row range of a wide codec is a share of one code that several
// senders split between them — any m blocks of the union reconstruct.
//
//pinlint:hotpath
func (c *Codec) disperseRows(files [][]byte, dst [][][]byte, first, end int) ([][][]byte, error) {
	if cap(dst) >= len(files) {
		dst = dst[:len(files)]
	} else {
		grown := make([][][]byte, len(files)) //pinlint:allow hotpath — first-cycle growth; steady state passes capacity back in
		copy(grown, dst)
		dst = grown
	}
	for _, data := range files {
		if len(data) == 0 {
			return nil, ErrEmptyFile
		}
	}
	rows := end - first
	for lo := 0; lo < len(files); {
		// Greedily extend the tile while its payloads fit the budget.
		hi := lo + 1
		tile := rows * c.shardLen(len(files[lo]))
		for hi < len(files) {
			next := tile + rows*c.shardLen(len(files[hi]))
			if next > batchTileBytes {
				break
			}
			tile = next
			hi++
		}
		// Systematic prefixes first (payload j = source block j,
		// zero-padded; as in DisperseInto the copies double as the
		// encode sources, so partial tail blocks need no scratch), then
		// the redundant rows coefficient-major across the tile, while
		// the prefix blocks are still cache-resident.
		for f := lo; f < hi; f++ {
			data := files[f]
			l := c.shardLen(len(data))
			out := growPayloads(dst[f], rows, l) //pinlint:allow hotpath — first-cycle growth; steady state passes capacity back in
			dst[f] = out
			for k := range out {
				if j := first + k; j < c.m {
					copySourceBlock(out[k], data, j, l)
				} else {
					clear(out[k])
				}
			}
		}
		for i := max(first, c.m); i < end; i++ {
			for j, tab := range c.encTables[i-c.m] {
				for f := lo; f < hi; f++ {
					out, data := dst[f], files[f]
					l := len(out[0])
					if j*l >= len(data) {
						continue // all-zero source block of a short file
					}
					// A range without the systematic copy of block j reads
					// the file itself: the zero padding adds nothing to a sum.
					var src []byte
					if k := j - first; k >= 0 && k < rows {
						src = out[k]
					} else {
						src = data[j*l : min((j+1)*l, len(data))]
					}
					gf256.MulAddSliceTable(tab, src, out[i-first][:len(src)])
				}
			}
		}
		lo = hi
	}
	return dst, nil
}

// DisperseFramesRange disperses blocks [first, end) of each files[f]
// (0 ≤ first < end ≤ n; the whole code is 0, n) under identifier ids[f]
// straight into wire form: blocks[f][k] is block first+k, with its own
// number in Seq and the codec's full width in N. A range that starts at
// or past m holds no systematic block. Each file gets one slab holding
// its frames back to back; DisperseBatch writes the payloads into the
// frames' payload regions and every header and CRC-32 is then sealed in
// place, so each block exists once: blocks[f][k].Payload aliases
// frames[f][k][headerSize:]. Blocks and frames are meant to be shared
// from here on — copy before mutating either.
func (c *Codec) DisperseFramesRange(ids []uint32, files [][]byte, first, end int) (blocks [][]*Block, frames [][][]byte, err error) {
	if first < 0 || first >= end || end > c.n {
		return nil, nil, fmt.Errorf("%w (blocks [%d,%d) of %d)", ErrBadParams, first, end, c.n)
	}
	rows := end - first
	blocks, frames = make([][]*Block, len(files)), make([][][]byte, len(files))
	dst := make([][][]byte, len(files)) // the frames' payload regions
	for f, data := range files {
		wire := headerSize + c.shardLen(len(data))
		slab, store := make([]byte, rows*wire), make([]Block, rows)
		blocks[f], frames[f], dst[f] = make([]*Block, rows), make([][]byte, rows), make([][]byte, rows)
		for i := range store {
			frames[f][i] = slab[i*wire : (i+1)*wire : (i+1)*wire]
			dst[f][i] = frames[f][i][headerSize:]
			store[i] = Block{
				FileID:  ids[f],
				Seq:     uint16(first + i),
				M:       uint16(c.m),
				N:       uint16(c.n),
				Length:  uint32(len(data)),
				Payload: dst[f][i],
			}
			blocks[f][i] = &store[i]
		}
	}
	if _, err := c.disperseRows(files, dst, first, end); err != nil {
		return nil, nil, err
	}
	for f := range files {
		for i, b := range blocks[f] {
			b.seal(frames[f][i])
		}
	}
	return blocks, frames, nil
}
