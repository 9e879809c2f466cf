// Package client implements the mobile client of a broadcast-disk
// system: it listens to the channel, keeps the self-identifying blocks
// relevant to its pending requests, reconstructs files with IDA as soon
// as any M distinct blocks have arrived, and tracks retrieval deadlines.
// The dispersal is systematic, so a kept block j < M is row j of the
// file: once a file's first systematic block has placed its output
// buffer, each later one is decoded straight into its row — its bytes
// are written once, after the checksum has passed — and reconstruction
// computes only the rows still missing, each in one fused pass. A kept
// parity block keeps the buffer it was decoded into.
package client

import (
	"cmp"
	"fmt"
	"slices"

	"pinbcast/internal/ida"
)

// Request asks for one file with a relative deadline.
type Request struct {
	File     string
	Deadline int // slots after the request becomes active; 0 = none
}

// Result records the outcome of one request.
type Result struct {
	File        string
	Completed   bool
	Latency     int // slots from request activation to reconstruction (valid if Completed)
	Deadline    int
	DeadlineMet bool
	// Data is the reconstructed file, in the buffer its systematic
	// blocks were written into as they arrived; the client never writes
	// it again unless it is handed back through Recycle.
	Data       []byte
	BlocksUsed int
	Corrupted  int // corrupted receptions observed for this file
}

// Outcome classifies what one observed slot did for the client.
type Outcome int8

// Observe outcomes.
const (
	// Idle: the slot carried no block.
	Idle Outcome = iota
	// Corrupt: the payload failed its checksum and was dropped.
	Corrupt
	// Unknown: a valid block of a file absent from the directory.
	Unknown
	// Ignored: a valid block of a file with no pending request (or a
	// duplicate sequence number already held).
	Ignored
	// Stored: a new distinct block of a pending file was retained.
	Stored
	// Completed: the block completed a reconstruction.
	Completed
)

// Client collects blocks for a set of requests. The zero value is not
// usable; construct with NewSubscriber.
type Client struct {
	start    int // first observed slot; -1 until the client hears the channel
	now      int
	pending  map[string]*pendingFile // uncompleted requests only: PendingCount and Done are its length
	nextSeq  uint64                  // stamp of the next request
	results  []Result                // the outbox: recorded and not yet taken
	fileName map[uint32]string       // file ID -> name, learned from the server mapping

	// scratch is the decode target Observe reuses across slots, so
	// classifying a block costs no allocation; a file's first systematic
	// block is copied out of it into its row, a parity block takes its
	// payload buffer. heard is the file ID of the last block decoded.
	scratch ida.Block
	heard   uint32

	// freeBlocks recycles the blocks that hold their own payload buffer —
	// parity blocks and blocks taken from another client — of files
	// finished or cancelled: a kept parity block trades buffers with the
	// scratch rather than copying. blockScratch is finish's reconstruction
	// assembly slice, reused across files. freePending recycles the entry
	// (and emptied block map) of every request that leaves pending —
	// completed, cancelled or flushed — and Add takes from it:
	// re-requesting is the steady state, not the exception. freeData
	// holds output buffers handed back through Recycle or left by a
	// request that ended without a result; a file's first kept systematic
	// block takes one as its row buffer, so steady-state retrieval
	// (request, finish, recycle, repeat) writes into the same buffer
	// every cycle.
	freeBlocks   []*ida.Block
	blockScratch []*ida.Block
	freePending  []*pendingFile
	freeData     [][]byte
	openBuf      []*pendingFile // open's result, reused by every Flush

	// lent counts the blocks taken in from other clients (Take) less those
	// given up to them (Yield): how many of the blocks this client holds or
	// pools are another's, until Settle evens the pools out.
	lent int
}

type pendingFile struct {
	req       Request
	seq       uint64 // request order: Client.nextSeq at Add
	from      int    // slot the deadline clock starts at; -1 = first observed slot
	blocks    map[uint16]*ida.Block
	corrupted int

	// data is the file's padded output buffer, nil until its first kept
	// systematic block: M rows of one payload length. rows[j] is the block
	// stored for row j, its Payload that row.
	data []byte
	rows []ida.Block
}

// inPlace reports whether b is the block stored for its row of the
// output buffer, rather than one holding its own payload buffer.
//
//pinlint:hotpath
func (p *pendingFile) inPlace(b *ida.Block) bool {
	return int(b.Seq) < len(p.rows) && b == &p.rows[b.Seq]
}

// row returns the block of p's row a frame with header h and an l-byte
// payload decodes straight into, its Payload that row of p's output
// buffer: a systematic row not yet held, of a file whose rows are placed
// with the same M and payload length. nil (also for a nil p) leaves the
// frame to the scratch.
//
//pinlint:hotpath
func (p *pendingFile) row(h *ida.Block, l int) *ida.Block {
	if p == nil || h.Seq >= h.M || int(h.M) != len(p.rows) || l*len(p.rows) != len(p.data) {
		return nil
	}
	if _, dup := p.blocks[h.Seq]; dup {
		return nil
	}
	j := int(h.Seq)
	row := &p.rows[j]
	row.Payload = p.data[j*l : (j+1)*l : (j+1)*l]
	return row
}

// place writes the payload of b, the first systematic block kept for p,
// into its row of p's output buffer, taken from the Recycle pool (else
// allocated), and returns the block stored for that row. It returns nil,
// leaving b to be kept as it is, for any other block: one on a file whose
// rows are placed (a block that fits them decodes into its row
// directly), a parity block, and one outside the codec's 1 ≤ M ≤ N ≤ 256.
// The checksum is no authentication: a forged header sizes at most 256
// of its own payloads, the largest file the codec rebuilds from blocks
// that size.
//
//pinlint:hotpath
func (c *Client) place(p *pendingFile, b *ida.Block) *ida.Block {
	m, l, j := int(b.M), len(b.Payload), int(b.Seq)
	if p.data != nil || j >= m || int(b.N) < m || b.N > 256 || l == 0 {
		return nil
	}
	p.data, p.rows = slices.Grow(c.takeData()[:0], m*l)[:m*l], slices.Grow(p.rows[:0], m)[:m] //pinlint:allow hotpath — grows only a recycled buffer too small for the file, and the row blocks up to the largest M seen
	row := &p.rows[j]
	*row = *b
	row.Payload = p.data[j*l : (j+1)*l : (j+1)*l]
	copy(row.Payload, b.Payload)
	return row
}

// takeData pops an output buffer from the Recycle pool; nil when it is
// empty. The pool lets go of it: a buffer too small for the file that
// takes it is superseded, and must not stay reachable from the pool.
//
//pinlint:hotpath
func (c *Client) takeData() []byte {
	n := len(c.freeData) - 1
	if n < 0 {
		return nil
	}
	buf := c.freeData[n]
	c.freeData[n] = nil
	c.freeData = c.freeData[:n]
	return buf
}

// spareBlock pops a pooled block, payload buffer included; nil when the
// pool is empty.
//
//pinlint:hotpath
func (c *Client) spareBlock() *ida.Block {
	n := len(c.freeBlocks) - 1
	if n < 0 {
		return nil
	}
	b := c.freeBlocks[n]
	c.freeBlocks = c.freeBlocks[:n]
	return b
}

// NewSubscriber returns a client with no initial requests: it fixes its
// start at the first slot it observes ("tuning in"), learns directory
// entries with Learn, and accepts requests over time with Add. names
// maps server file IDs to names (the paper's self-identifying blocks
// carry the ID; a directory of names is application metadata).
func NewSubscriber(names map[uint32]string) *Client {
	c := &Client{
		start:    -1,
		now:      -1,
		pending:  make(map[string]*pendingFile),
		fileName: make(map[uint32]string, len(names)),
	}
	for id, name := range names {
		c.fileName[id] = name
	}
	return c
}

// Add registers one more request. Its deadline clock starts at the next
// slot the client observes (or at the client's start, if it has not
// begun listening yet). Adding a request for a file that is still
// pending is an error; re-requesting a completed file starts a fresh
// retrieval.
func (c *Client) Add(r Request) error {
	if r.File == "" {
		return fmt.Errorf("client: request without a file name")
	}
	if _, dup := c.pending[r.File]; dup {
		return fmt.Errorf("client: duplicate request for %q", r.File)
	}
	from := c.start
	if c.start >= 0 && c.now >= c.start {
		from = c.now + 1 // already listening: the clock starts next slot
	}
	var p *pendingFile
	if n := len(c.freePending) - 1; n >= 0 {
		p = c.freePending[n]
		c.freePending = c.freePending[:n]
	} else {
		p = &pendingFile{blocks: make(map[uint16]*ida.Block)}
	}
	p.req, p.seq, p.from, p.corrupted = r, c.nextSeq, from, 0
	c.nextSeq++
	c.pending[r.File] = p
	return nil
}

// release takes a request out of pending — completed, cancelled or
// flushed — and pools its entry, the blocks it holds that are not rows,
// and its output buffer unless a result took it.
//
//pinlint:hotpath
func (c *Client) release(p *pendingFile) {
	delete(c.pending, p.req.File)
	for _, b := range p.blocks {
		if !p.inPlace(b) {
			c.freeBlocks = append(c.freeBlocks, b)
		}
	}
	clear(p.blocks)
	clear(p.rows) // an idle entry must not point into a buffer it gave away
	p.rows = p.rows[:0]
	if p.data != nil {
		c.freeData = append(c.freeData, p.data[:0])
		p.data = nil
	}
	c.freePending = append(c.freePending, p)
}

// Cancel withdraws an uncompleted request without recording a result,
// discarding any blocks collected for it. It reports whether a pending
// request was actually withdrawn. A multi-channel tuner cancels a
// file's collection on the losing channels once any channel completes
// it (or when it hops a request off a dead channel).
func (c *Client) Cancel(name string) bool {
	p, ok := c.pending[name]
	if !ok {
		return false
	}
	c.release(p)
	return true
}

// Heard returns the name of the file whose block the last Observe that
// decoded one carried: after a Stored outcome, the file the block was
// stored for.
//
//pinlint:hotpath
func (c *Client) Heard() string { return c.fileName[c.heard] }

// Yield and Take are the two halves of a hand-over between the clients
// of one listener tuned to several channels that carry the same file:
// any M distinct blocks rebuild it, whichever channel each came from.
//
// Yield gives up the blocks held for a pending file, appending them to
// dst; the request stays open, its clock and corruption count as they
// were. A block written into its row goes as a copy in a pooled block: a
// row never leaves its owner's buffer.
func (c *Client) Yield(name string, dst []*ida.Block) []*ida.Block {
	if p, ok := c.pending[name]; ok {
		for _, b := range p.blocks {
			if p.inPlace(b) {
				cp := c.spareBlock()
				if cp == nil {
					cp = new(ida.Block)
				}
				buf := cp.Payload
				*cp = *b
				cp.Payload = append(buf[:0], b.Payload...)
				b = cp
			}
			dst = append(dst, b)
		}
		c.lent -= len(p.blocks)
		clear(p.blocks)
	}
	return dst
}

// Take takes blocks another client gave up into this client's pending
// request for the file — a block already held (or any, with no such
// request) is recycled — and reports whether the request completed: with
// M distinct blocks held it finishes as on the slot that stores the last.
// A taken block keeps its own buffer, so a block handed back and forth
// between channels is copied at most once, when it first leaves a row.
func (c *Client) Take(name string, blocks []*ida.Block) (completed bool) {
	c.lent += len(blocks)
	p, open := c.pending[name]
	for _, b := range blocks {
		if open {
			if _, dup := p.blocks[b.Seq]; !dup {
				if p.blocks[b.Seq] = b; len(p.blocks) >= int(b.M) {
					c.finish(p)
					open, completed = false, true
				}
				continue
			}
		}
		c.freeBlocks = append(c.freeBlocks, b)
	}
	return completed
}

// Settle evens the block pools out after hand-overs, so that no client's
// pool grows at another's expense: a client that took in more blocks than
// it gave up appends the difference, as far as it has them free, to spare;
// one that gave up more keeps that many of spare. It returns what is left.
func (c *Client) Settle(spare []*ida.Block) []*ida.Block {
	for ; c.lent > 0 && len(c.freeBlocks) > 0; c.lent-- {
		n := len(c.freeBlocks) - 1
		spare, c.freeBlocks = append(spare, c.freeBlocks[n]), c.freeBlocks[:n]
	}
	for ; c.lent < 0 && len(spare) > 0; c.lent++ {
		n := len(spare) - 1
		c.freeBlocks, spare = append(c.freeBlocks, spare[n]), spare[:n]
	}
	return spare
}

// Learn adds one directory entry mapping a broadcast file identifier to
// a name (e.g. gleaned from an air index or an in-process slot stream).
//
//pinlint:hotpath
func (c *Client) Learn(id uint32, name string) {
	c.fileName[id] = name
}

// IsPending reports whether the named file has an uncompleted request.
//
//pinlint:hotpath
func (c *Client) IsPending(name string) bool {
	_, ok := c.pending[name]
	return ok
}

// PendingCount returns the number of uncompleted requests.
//
//pinlint:hotpath
func (c *Client) PendingCount() int { return len(c.pending) }

// open returns the uncompleted requests in request order, in scratch it
// reuses — map iteration order must never reach a caller.
func (c *Client) open() []*pendingFile {
	c.openBuf = c.openBuf[:0]
	for _, p := range c.pending {
		c.openBuf = append(c.openBuf, p)
	}
	slices.SortFunc(c.openBuf, func(a, b *pendingFile) int { return cmp.Compare(a.seq, b.seq) })
	return c.openBuf
}

// Done reports whether every request has been completed.
//
//pinlint:hotpath
func (c *Client) Done() bool { return len(c.pending) == 0 }

// Observe delivers the raw channel contents of slot t to the client:
// nil for an idle slot, otherwise the (possibly corrupted) marshaled
// block. Corrupted blocks are detected by checksum and counted against
// the file they would have served when identifiable, or dropped
// silently otherwise — exactly the "wait for the next useful block"
// behaviour of §2.3. The returned Outcome classifies what the slot did
// for the client; callers that only care about completion may ignore it.
//
// Observe is the per-slot protocol step; slots that do not complete a
// request must not allocate.
//
//pinlint:hotpath
func (c *Client) Observe(t int, raw []byte) Outcome {
	if c.start < 0 {
		c.start = t
		c.now = t
		for _, p := range c.pending {
			if p.from < 0 {
				p.from = t
			}
		}
	}
	if t < c.start {
		return Ignored
	}
	c.now = t
	if raw == nil {
		return Idle
	}
	// The header, read before the checksum is checked, picks where the
	// frame decodes: a new row of a file whose rows are placed straight
	// into its row, anything else into the reusable scratch — most slots
	// carry a block the client ignores, and those must not allocate.
	// UnmarshalInto writes nothing unless the checksum passes, and once
	// it passes the header is the block's.
	var h ida.Block
	l := h.ReadHeader(raw)
	name, known := c.fileName[h.FileID]
	p, wanted := c.pending[name]
	blk := &c.scratch
	if row := p.row(&h, l); row != nil {
		blk = row
	}
	if err := ida.UnmarshalInto(raw, blk); err != nil {
		// The block is unreadable; we cannot even tell whose it was.
		// Charge it to every still-pending file's corruption count is
		// wrong; charge nobody, as the paper's client simply waits.
		return Corrupt
	}
	c.heard = h.FileID
	switch {
	case !known:
		return Unknown
	case !wanted:
		return Ignored
	case blk == &c.scratch:
		if _, dup := p.blocks[blk.Seq]; dup {
			return Ignored
		}
		if blk = c.place(p, blk); blk == nil {
			// A parity block keeps the buffer it was decoded into; the
			// scratch takes the pooled block's.
			if blk = c.spareBlock(); blk == nil {
				blk = new(ida.Block) //pinlint:allow hotpath — one block per kept parity block until the recycle pool warms up
			}
			buf := blk.Payload
			*blk = c.scratch
			c.scratch.Payload = buf[:0]
		}
	}
	p.blocks[blk.Seq] = blk
	if len(p.blocks) >= int(blk.M) {
		c.finish(p)
		return Completed
	}
	return Stored
}

// finish reconstructs the file — only the rows no kept block was written
// into — and records the result. It runs once per completed request but
// sits on the per-slot path, so everything it touches is pooled: the
// assembly slice, the stored blocks it releases, and the output buffer,
// the rows' own or, when every kept block is parity, a recycled one.
//
//pinlint:hotpath
func (c *Client) finish(p *pendingFile) {
	c.blockScratch = c.blockScratch[:0]
	for _, b := range p.blocks {
		c.blockScratch = append(c.blockScratch, b)
	}
	blocks := c.blockScratch
	if p.data == nil {
		p.data = c.takeData()
	}
	data, err := ida.ReconstructFileInto(blocks, p.data)
	latency := c.now - p.from + 1
	res := Result{
		File:       p.req.File,
		Deadline:   p.req.Deadline,
		Latency:    latency,
		BlocksUsed: len(blocks),
		Corrupted:  p.corrupted,
	}
	if err == nil {
		res.Completed = true
		res.Data = data
		res.DeadlineMet = p.req.Deadline == 0 || latency <= p.req.Deadline
		p.data = nil // the result's now
	}
	c.results = append(c.results, res)
	// The stored blocks are dead now that the file is rebuilt: recycle
	// them (and the buffer, if no result took it) and keep the assembly
	// slice, with its references dropped, for the next reconstruction.
	c.release(p)
	clear(blocks)
}

// NoteCorruption is called by a receiver that knows whose transmission
// a destroyed slot carried (the in-process transport and the simulator
// name each slot's file); the client itself cannot attribute a block
// that fails its checksum. Used for per-file loss accounting in
// results.
//
//pinlint:hotpath
func (c *Client) NoteCorruption(name string) {
	if p, ok := c.pending[name]; ok {
		p.corrupted++
	}
}

// TakeResults hands the outbox over: it appends every result recorded
// since the last call to dst, removes them from the client, and returns
// dst. The outbox keeps its capacity and drops its Data references, so
// a client whose results are taken as they happen holds none of them.
//
//pinlint:hotpath
func (c *Client) TakeResults(dst []Result) []Result {
	dst = append(dst, c.results...)
	clear(c.results)
	c.results = c.results[:0]
	return dst
}

// Recycle hands a reconstructed file's Data buffer back to the client
// for reuse: it becomes a later retrieval's row buffer, written from
// that retrieval's first kept systematic block on. The caller must be
// finished with the buffer — no Result it still holds may reference it.
//
//pinlint:hotpath
func (c *Client) Recycle(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	c.freeData = append(c.freeData, buf[:0])
}

// Flush closes out incomplete requests as failures at the given final
// slot, in the order they were requested (their blocks are discarded),
// and returns the outbox: every result not yet taken.
func (c *Client) Flush(final int) []Result {
	for _, p := range c.open() {
		from := p.from
		if from < 0 {
			from = final // never heard a slot: zero listening time
		}
		c.results = append(c.results, Result{
			File:      p.req.File,
			Completed: false,
			Deadline:  p.req.Deadline,
			Latency:   final - from + 1,
			Corrupted: p.corrupted,
		})
		c.release(p)
	}
	return c.results
}
