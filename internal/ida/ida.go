package ida

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

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
// DisperseInto and ReconstructInto write into caller-owned buffers, so
// steady-state encode/decode loops run allocation-free.
type Codec struct {
	m, n int
	mat  *gfmat.Matrix // n×m systematic dispersal matrix [x_ij]

	mu       sync.Mutex
	invCache map[string]*list.Element // key: packed sorted row indices
	invLRU   list.List                // front = most recent; values are *invEntry
	invLimit int

	used atomic.Int64 // codecsClock at the last Shared that returned it
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
	return &Codec{
		m:        m,
		n:        n,
		mat:      gfmat.SystematicVandermonde(n, m),
		invCache: make(map[string]*list.Element),
		invLimit: DefaultInverseCacheLimit,
	}, nil
}

// codecs is the process-wide registry of shared codecs, keyed by (m, n).
// A codec's dispersal matrix is immutable and its inverse cache
// synchronized, so one codec serves every caller — and the §2.1 inverse
// cache accumulates across retrievals instead of dying with a throwaway
// codec. The registry holds at most sharedCodecs and evicts the least
// recently used: a block's checksum is no authentication, so a forged
// header can name any of the ≈ 33 k valid pairs, and each would
// otherwise stay for good.
var (
	codecsMu    sync.RWMutex
	codecs      = make(map[[2]int]*Codec)
	codecsClock atomic.Int64 // stamps Codec.used
)

// sharedCodecs bounds the registry, far above the pairs a station's
// catalogue uses.
const sharedCodecs = 64

// Shared returns the process-wide codec for (m, n), constructing it on
// first use. Codecs are safe for concurrent use, so sharing them
// amortizes matrix construction and the inverse cache across every file
// with the same dispersal parameters.
func Shared(m, n int) (*Codec, error) {
	key := [2]int{m, n}
	codecsMu.RLock()
	c := codecs[key]
	codecsMu.RUnlock()
	if c == nil {
		fresh, err := NewCodec(m, n)
		if err != nil {
			return nil, err
		}
		codecsMu.Lock()
		if c = codecs[key]; c == nil {
			c = fresh
			if len(codecs) >= sharedCodecs {
				var lru [2]int
				oldest := int64(math.MaxInt64)
				for k, old := range codecs {
					if at := old.used.Load(); at < oldest {
						lru, oldest = k, at
					}
				}
				delete(codecs, lru)
			}
			c.used.Store(codecsClock.Add(1)) // before another insert can see it
			codecs[key] = c
		}
		codecsMu.Unlock()
	}
	c.used.Store(codecsClock.Add(1))
	return c, nil
}

// shardLen returns the payload length of each dispersed block for a file
// of dataLen bytes: the file is padded to m equal-length source blocks.
//
//pinlint:hotpath
func (c *Codec) shardLen(dataLen int) int {
	return (dataLen + c.m - 1) / c.m
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

// ReconstructInto recovers the original file of dataLen bytes from any
// m shards with distinct sequence numbers into dst, reusing dst's
// backing array when it has capacity for the padded file (m·shardLen
// bytes), and returns the first dataLen bytes. Extra shards beyond m
// are ignored (the first m distinct, in ascending Seq order, are used).
// A nil or too-small dst grows as needed.
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
	// Reconstruction operation of Figure 3: source_j = Σᵢ inv[j][i]·rowᵢ,
	// one fused pass per row. Rows of the inverse addressing received
	// systematic shards are unit vectors: such a source block is already
	// in place when its shard is dst's row j, and otherwise costs one
	// copy.
	for j := 0; j < c.m; j++ {
		out := dst[j*l : (j+1)*l]
		if in := sc.rowOf[j]; len(in) == l && &in[0] == &out[0] {
			continue
		}
		gf256.MulSumSlice(inv.Row(j), sc.rows, out)
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
	wire := 0
	if err == nil {
		wire, err = c.FrameLen(len(data))
	}
	if err != nil {
		return nil, err
	}
	store, blocks := make([]Block, n), make([]*Block, n)
	if err := c.DisperseFramesRange(fileID, data, 0, n, make([]byte, n*wire), store, make([][]byte, n)); err != nil {
		return nil, err
	}
	for i := range store {
		blocks[i] = &store[i]
	}
	return blocks, nil
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
	if err := ref.validate(); err != nil { //pinlint:allow hotpath — malformed block, cold path
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
