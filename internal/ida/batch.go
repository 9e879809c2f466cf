package ida

import "pinbcast/internal/gf256"

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
	for lo := 0; lo < len(files); {
		// Greedily extend the tile while its payloads fit the budget.
		hi := lo + 1
		tile := c.n * c.shardLen(len(files[lo]))
		for hi < len(files) {
			next := tile + c.n*c.shardLen(len(files[hi]))
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
			out := c.growPayloads(dst[f], l) //pinlint:allow hotpath — first-cycle growth; steady state passes capacity back in
			dst[f] = out
			for j := 0; j < c.m; j++ {
				copySourceBlock(out[j], data, j, l)
			}
			for i := c.m; i < c.n; i++ {
				clear(out[i])
			}
		}
		for i, tabs := range c.encTables {
			for j, tab := range tabs {
				for f := lo; f < hi; f++ {
					out := dst[f]
					if j*len(out[0]) >= len(files[f]) {
						continue // all-zero source block of a short file
					}
					gf256.MulAddSliceTable(tab, out[j], out[c.m+i])
				}
			}
		}
		lo = hi
	}
	return dst, nil
}

// DisperseFrames disperses each files[f] under identifier ids[f]
// straight into wire form. Each file gets one slab holding its n frames
// back to back; DisperseBatch writes the payloads into the frames'
// payload regions and every header and CRC-32 is then sealed in place,
// so each block exists once: blocks[f][i].Payload aliases
// frames[f][i][headerSize:]. Blocks and frames are meant to be shared
// from here on — copy before mutating either.
func (c *Codec) DisperseFrames(ids []uint32, files [][]byte) (blocks [][]*Block, frames [][][]byte, err error) {
	blocks, frames = make([][]*Block, len(files)), make([][][]byte, len(files))
	dst := make([][][]byte, len(files)) // the frames' payload regions
	for f, data := range files {
		wire := headerSize + c.shardLen(len(data))
		slab, store := make([]byte, c.n*wire), make([]Block, c.n)
		blocks[f], frames[f], dst[f] = make([]*Block, c.n), make([][]byte, c.n), make([][]byte, c.n)
		for i := range store {
			frames[f][i] = slab[i*wire : (i+1)*wire : (i+1)*wire]
			dst[f][i] = frames[f][i][headerSize:]
			store[i] = Block{
				FileID:  ids[f],
				Seq:     uint16(i),
				M:       uint16(c.m),
				N:       uint16(c.n),
				Length:  uint32(len(data)),
				Payload: dst[f][i],
			}
			blocks[f][i] = &store[i]
		}
	}
	if _, err := c.DisperseBatch(files, dst); err != nil {
		return nil, nil, err
	}
	for f := range files {
		for i, b := range blocks[f] {
			b.seal(frames[f][i])
		}
	}
	return blocks, frames, nil
}
