package ida

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"

	"pinbcast/internal/gf256"
	"pinbcast/internal/gfmat"
)

// Codec disperses and reconstructs files with fixed parameters (m, n):
// files are split into m source blocks and dispersed into n ≥ m coded
// blocks, any m of which reconstruct the file. A Codec is safe for
// concurrent use; reconstruction inverse matrices are cached per row
// subset in a bounded LRU, the precomputation suggested in §2.1 of the
// paper.
//
// The dispersal matrix is systematic (gfmat.SystematicVandermonde): the
// first m coded blocks are verbatim copies of the source blocks, so
// encoding computes only the n−m redundant rows and a decode from the
// systematic prefix is a straight copy, while every m-row submatrix
// remains invertible — the any-m-of-n property of §2.1 is unchanged.
//
// Disperse and Reconstruct allocate their results; the streaming
// DisperseInto and ReconstructInto variants write into caller-owned
// buffers so steady-state encode/decode loops run allocation-free.
type Codec struct {
	m, n int
	mat  *gfmat.Matrix // n×m systematic dispersal matrix [x_ij]

	// encTables[i][j] is the cached product table of mat coefficient
	// (m+i, j): the encode tables of redundant row m+i. Precomputed at
	// construction so encoding never touches the log/exp tables.
	encTables [][]*gf256.Table

	mu       sync.Mutex
	invCache map[string]*list.Element // key: packed sorted row indices
	invLRU   list.List                // front = most recent; values are *invEntry
	invLimit int
}

// invEntry is one cached reconstruction inverse with its LRU key.
type invEntry struct {
	key string
	inv *gfmat.Matrix
}

// DefaultInverseCacheLimit bounds the per-codec reconstruction-inverse
// cache. Under client churn every distinct received row subset is one
// entry; the LRU keeps the hot subsets and evicts the rest instead of
// growing without bound.
const DefaultInverseCacheLimit = 128

// Dispersal parameter errors.
var (
	ErrBadParams      = errors.New("ida: need 1 ≤ m ≤ n ≤ 256")
	ErrNotEnough      = errors.New("ida: fewer than m distinct blocks available")
	ErrEmptyFile      = errors.New("ida: cannot disperse an empty file")
	ErrWrongBlockSize = errors.New("ida: blocks have inconsistent sizes")
)

// NewCodec returns a Codec dispersing into n blocks with reconstruction
// threshold m. The dispersal matrix is systematic Vandermonde, so every
// m-row submatrix is invertible.
func NewCodec(m, n int) (*Codec, error) {
	if m < 1 || n < m || n > 256 {
		return nil, fmt.Errorf("%w (m=%d, n=%d)", ErrBadParams, m, n)
	}
	c := &Codec{
		m:        m,
		n:        n,
		mat:      gfmat.SystematicVandermonde(n, m),
		invCache: make(map[string]*list.Element),
		invLimit: DefaultInverseCacheLimit,
	}
	c.encTables = make([][]*gf256.Table, n-m)
	for i := range c.encTables {
		row := c.mat.Row(m + i)
		tabs := make([]*gf256.Table, m)
		for j, coef := range row {
			tabs[j] = gf256.MulTable(coef)
		}
		c.encTables[i] = tabs
	}
	return c, nil
}

// codecs is the process-wide registry of shared codecs, keyed by (m, n).
// The dispersal matrix, encode tables and inverse cache for a parameter
// pair are immutable or internally synchronized, so one codec serves
// every caller — and the §2.1 inverse cache actually accumulates across
// retrievals instead of dying with a throwaway codec.
var (
	codecsMu sync.RWMutex
	codecs   = make(map[[2]int]*Codec)
)

// Shared returns the process-wide codec for (m, n), constructing it on
// first use. Codecs are safe for concurrent use, so sharing them
// amortizes matrix construction, encode-table setup and the inverse
// cache across every file with the same dispersal parameters.
func Shared(m, n int) (*Codec, error) {
	key := [2]int{m, n}
	codecsMu.RLock()
	c := codecs[key]
	codecsMu.RUnlock()
	if c != nil {
		return c, nil
	}
	c, err := NewCodec(m, n)
	if err != nil {
		return nil, err
	}
	codecsMu.Lock()
	if prev := codecs[key]; prev != nil {
		c = prev
	} else {
		codecs[key] = c
	}
	codecsMu.Unlock()
	return c, nil
}

// shardLen returns the payload length of each dispersed block for a file
// of dataLen bytes: the file is padded to m equal-length source blocks.
//
//pinlint:hotpath
func (c *Codec) shardLen(dataLen int) int {
	return (dataLen + c.m - 1) / c.m
}

// Disperse splits data into m source blocks (zero-padding the tail) and
// returns the n dispersed payloads. Payload i is Σⱼ mat[i][j]·sourceⱼ,
// the dispersal operation of Figure 3. The payloads are freshly
// allocated; use DisperseInto to reuse buffers.
func (c *Codec) Disperse(data []byte) ([][]byte, error) {
	return c.DisperseInto(data, nil)
}

// DisperseInto disperses data into dst, reusing dst's backing arrays
// when they have capacity, and returns dst resliced to the n payloads
// of shardLen(len(data)) bytes each. A nil dst (or one with too little
// capacity) grows as needed, so steady-state callers that pass the
// previous cycle's result back in disperse with zero allocations.
//
// Ownership: the returned payload slices belong to the caller; the
// codec retains no reference to them or to data. Payload j < m aliases
// nothing (it is a copy of source block j), so mutating data afterwards
// does not corrupt the shards. Payloads must not alias data or each
// other.
//
//pinlint:hotpath
func (c *Codec) DisperseInto(data []byte, dst [][]byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, ErrEmptyFile
	}
	l := c.shardLen(len(data))
	dst = growPayloads(dst, c.n, l) //pinlint:allow hotpath — first-cycle growth; steady state passes capacity back in

	// Systematic prefix: payload j = source block j, zero-padded. The
	// copies double as the encode sources below, so the partial tail
	// block needs no separate scratch.
	for j := 0; j < c.m; j++ {
		copySourceBlock(dst[j], data, j, l)
	}
	// Redundant rows: payload m+i = Σⱼ mat[m+i][j]·sourceⱼ, via the
	// precomputed per-coefficient product tables. Source blocks past
	// the end of data are entirely zero and contribute nothing, so the
	// accumulation stops at the last block with data.
	live := (len(data) + l - 1) / l
	for i, tabs := range c.encTables {
		out := dst[c.m+i]
		clear(out)
		for j, tab := range tabs {
			if j >= live {
				break
			}
			gf256.MulAddSliceTable(tab, dst[j], out)
		}
	}
	return dst, nil
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

// Shard pairs a dispersed payload with its row index in the dispersal
// matrix (the block's sequence number).
type Shard struct {
	Seq  int
	Data []byte
}

// reconScratch is the reusable working state of one reconstruction:
// per-sequence payload lookup, the selected sequence numbers, and their
// payload rows.
type reconScratch struct {
	rowOf [][]byte // indexed by seq; nil = not received
	seqs  []int
	rows  [][]byte
}

var reconPool = sync.Pool{New: func() any { return new(reconScratch) }}

// releaseRecon drops the shard-payload references before pooling so an
// idle scratch never pins caller buffers. This also establishes the
// invariant the Get path relies on: every element within the slices'
// lengths is nil (writes only ever land below len, and this clear
// covers len).
//
//pinlint:hotpath
func releaseRecon(sc *reconScratch) {
	clear(sc.rowOf)
	clear(sc.rows)
	reconPool.Put(sc)
}

// Reconstruct recovers the original file of dataLen bytes from any m
// shards with distinct sequence numbers. Extra shards beyond m are
// ignored (the first m distinct, in ascending Seq order, are used). The
// result is freshly allocated; use ReconstructInto to reuse a buffer.
func (c *Codec) Reconstruct(shards []Shard, dataLen int) ([]byte, error) {
	return c.ReconstructInto(shards, dataLen, nil)
}

// ReconstructInto recovers the original file of dataLen bytes into dst,
// reusing dst's backing array when it has capacity for the padded file
// (m·shardLen bytes), and returns the first dataLen bytes. A nil or
// too-small dst grows as needed.
//
// Ownership: the returned slice aliases dst's backing array (or the
// grown replacement); the codec retains no reference to it or to the
// shard payloads. A shard with sequence number j < m whose payload is
// dst's own row j — the same backing bytes, dst[j·l : (j+1)·l] — is
// taken as in place: that row is neither cleared nor written, only read.
// No other shard may alias dst.
//
//pinlint:hotpath
func (c *Codec) ReconstructInto(shards []Shard, dataLen int, dst []byte) ([]byte, error) {
	if dataLen <= 0 {
		return nil, ErrEmptyFile
	}
	sc := reconPool.Get().(*reconScratch)
	defer releaseRecon(sc)
	if cap(sc.rowOf) >= c.n {
		sc.rowOf = sc.rowOf[:c.n]
	} else {
		sc.rowOf = make([][]byte, c.n) //pinlint:allow hotpath — first use of a pooled scratch; amortized across reconstructions
	}
	sc.seqs = sc.seqs[:0]
	// Deduplicate by sequence number (first shard carrying a seq wins;
	// duplicates carry equal data), ascending.
	for _, s := range shards {
		if s.Seq < 0 || s.Seq >= c.n {
			return nil, fmt.Errorf("ida: shard seq %d out of range [0,%d)", s.Seq, c.n) //pinlint:allow hotpath — malformed shard, cold path
		}
		if sc.rowOf[s.Seq] == nil {
			sc.rowOf[s.Seq] = s.Data
			sc.seqs = append(sc.seqs, s.Seq)
		}
	}
	if len(sc.seqs) < c.m {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnough, len(sc.seqs), c.m) //pinlint:allow hotpath — too few shards, cold path
	}
	sort.Ints(sc.seqs)
	sc.seqs = sc.seqs[:c.m]

	l := c.shardLen(dataLen)
	if cap(sc.rows) >= c.m {
		sc.rows = sc.rows[:c.m]
	} else {
		sc.rows = make([][]byte, c.m) //pinlint:allow hotpath — first use of a pooled scratch; amortized across reconstructions
	}
	for i, seq := range sc.seqs {
		row := sc.rowOf[seq]
		if len(row) != l {
			return nil, fmt.Errorf("%w: shard %d has %d bytes, want %d", //pinlint:allow hotpath — malformed shard, cold path
				ErrWrongBlockSize, seq, len(row), l) //pinlint:allow hotpath — the ints box only when the malformed-shard error is built
		}
		sc.rows[i] = row
	}

	inv, err := c.inverse(sc.seqs)
	if err != nil {
		return nil, err
	}
	padded := c.m * l
	if cap(dst) >= padded {
		dst = dst[:padded]
	} else {
		dst = make([]byte, padded) //pinlint:allow hotpath — first-cycle growth; steady state passes capacity back in
	}
	// Reconstruction operation of Figure 3: source_j = Σᵢ inv[j][i]·rowᵢ.
	// Rows of the inverse addressing received systematic shards are unit
	// vectors: such a source block is already in place when its shard is
	// dst's row j, and otherwise costs one copy (MulSlice with c == 1).
	// A missing block is set by its first nonzero term and accumulates
	// the rest.
	for j := 0; j < c.m; j++ {
		out := dst[j*l : (j+1)*l]
		if in := sc.rowOf[j]; len(in) == l && &in[0] == &out[0] {
			continue
		}
		set := false
		for i := 0; i < c.m; i++ {
			switch f := inv.At(j, i); {
			case f == 0:
			case set:
				gf256.MulAddSlice(f, sc.rows[i], out)
			default:
				gf256.MulSlice(f, sc.rows[i], out)
				set = true
			}
		}
	}
	return dst[:dataLen], nil
}

// inverse returns the inverse of the submatrix of the dispersal matrix
// selected by rows seqs (sorted ascending), consulting and maintaining
// the bounded LRU cache. This is the precomputed [y_ij] of §2.1. A hit
// is allocation-free; the miss path below pays the inversion and cache
// insert, amortized across every later retrieval of the same subset.
//
//pinlint:hotpath
func (c *Codec) inverse(seqs []int) (*gfmat.Matrix, error) {
	// Pack the subset key on the stack; map lookups with a string(...)
	// conversion of a byte slice do not allocate, so a cache hit is
	// allocation-free.
	var kb [512]byte
	key := packSubsetKey(kb[:0], seqs)

	c.mu.Lock()
	if el, ok := c.invCache[string(key)]; ok {
		c.invLRU.MoveToFront(el)
		inv := el.Value.(*invEntry).inv
		c.mu.Unlock()
		return inv, nil
	}
	c.mu.Unlock()

	sub := c.mat.SelectRows(seqs) //pinlint:allow hotpath — cache miss, amortized by the LRU
	inv, err := sub.Invert()      //pinlint:allow hotpath — cache miss, amortized by the LRU
	if err != nil {
		// Cannot happen with a systematic Vandermonde matrix; guard anyway.
		return nil, fmt.Errorf("ida: dispersal submatrix singular: %w", err) //pinlint:allow hotpath — unreachable guard
	}

	c.mu.Lock()
	if el, ok := c.invCache[string(key)]; ok {
		// Raced with another reconstruction of the same subset.
		c.invLRU.MoveToFront(el)
		inv = el.Value.(*invEntry).inv
	} else {
		ks := string(key)                                                 //pinlint:allow hotpath — cache miss, amortized by the LRU
		c.invCache[ks] = c.invLRU.PushFront(&invEntry{key: ks, inv: inv}) //pinlint:allow hotpath — cache miss, amortized by the LRU
		for c.invLRU.Len() > c.invLimit {
			oldest := c.invLRU.Back()
			c.invLRU.Remove(oldest)
			delete(c.invCache, oldest.Value.(*invEntry).key)
		}
	}
	c.mu.Unlock()
	return inv, nil
}

// packSubsetKey appends the 2-byte big-endian encoding of each sequence
// number to b. With b backed by a stack array the packing allocates
// nothing.
//
//pinlint:hotpath
func packSubsetKey(b []byte, seqs []int) []byte {
	for _, s := range seqs {
		b = append(b, byte(s>>8), byte(s))
	}
	return b
}

// DisperseFile disperses data into n self-identifying blocks for the
// given file ID, with reconstruction threshold m. The codec is the
// process-wide shared one for (m, n).
func DisperseFile(fileID uint32, data []byte, m, n int) ([]*Block, error) {
	c, err := Shared(m, n)
	if err != nil {
		return nil, err
	}
	blocks, _, err := c.DisperseFramesRange([]uint32{fileID}, [][]byte{data}, 0, n)
	if err != nil {
		return nil, err
	}
	return blocks[0], nil
}

// shardPool recycles the shard views assembled by ReconstructFileInto.
// It stores *[]Shard so Get/Put never box a slice header.
var shardPool = sync.Pool{New: func() any { s := []Shard(nil); return &s }}

// ReconstructFileInto recovers a file from self-identifying blocks. All
// blocks must agree on FileID, M, N and Length; at least M blocks with
// distinct sequence numbers are required. The codec is the process-wide
// shared one, so its §2.1 inverse cache persists across retrievals. dst
// is reused when it has capacity for the padded file and grown (nil:
// freshly allocated) otherwise, exactly as in ReconstructInto, so a
// steady-state retrieval loop that passes the previous file's buffer
// back in decodes with zero allocations; a block whose Payload is its
// own row of dst is taken as in place, as there.
//
//pinlint:hotpath
func ReconstructFileInto(blocks []*Block, dst []byte) ([]byte, error) {
	if len(blocks) == 0 {
		return nil, ErrNotEnough
	}
	ref := blocks[0]
	if err := ref.Validate(); err != nil { //pinlint:allow hotpath — malformed block, cold path
		return nil, err
	}
	sp := shardPool.Get().(*[]Shard)
	shards := (*sp)[:0]
	for _, b := range blocks {
		if b.FileID != ref.FileID || b.M != ref.M || b.N != ref.N || b.Length != ref.Length {
			clear(shards)
			*sp = shards[:0]
			shardPool.Put(sp)
			return nil, ErrInconsistent
		}
		shards = append(shards, Shard{Seq: int(b.Seq), Data: b.Payload}) //pinlint:allow hotpath — pooled scratch; growth amortizes to zero across retrievals
	}
	c, err := Shared(int(ref.M), int(ref.N)) //pinlint:allow hotpath — registry hit after the first file is one RLock'd map read
	if err == nil {
		dst, err = c.ReconstructInto(shards, int(ref.Length), dst)
	} else {
		dst = nil
	}
	clear(shards) // drop payload references so the pool never pins them
	*sp = shards[:0]
	shardPool.Put(sp)
	return dst, err
}
