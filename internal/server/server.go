// Package server implements the broadcast-disk server: it disperses the
// database files with AIDA and pumps blocks onto the channel following
// a broadcast program, rotating each file's dispersed blocks across the
// program data cycle (§2.3).
package server

import (
	"fmt"
	"hash/fnv"
	"math"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
	"pinbcast/internal/ida"
)

// Server holds the dispersed database and the broadcast program. It
// never changes after New, so successive Servers share the blocks and
// frames of the files that did not change between them.
type Server struct {
	prog    *core.Program
	ids     []uint32 // per file: the stable broadcast identifier
	names   map[uint32]string
	data    [][]byte      // per file: the contents slice it was dispersed from
	ranges  []Range       // per file: which N blocks of its code these are
	blocks  [][]ida.Block // per file: the N transmitted blocks, by rotation position
	frames  [][][]byte    // per file: the wire form of each block; blocks alias their payload regions
	encoded int           // files New dispersed; the rest were carried over
}

// largeFrames is the runtime's small-object limit: a file whose frames
// together reach it is a large object with a span of its own anyway, so
// it gets a slab of its own rather than a share of its build's.
const largeFrames = 32 << 10

// FileID returns the stable broadcast identifier for a named file: the
// FNV-32a hash of the name. Name-derived identifiers survive program
// rebuilds (admission, eviction, mode changes), so a client holding
// blocks of a file keeps accumulating across generations of the
// broadcast program. Unnamed files fall back to their table index.
func FileID(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}

// directory derives the identifier table for a program and validates
// it: every file must map to a distinct uint32. A hash collision between
// two names — or a file table too large for the identifier space — is
// reported as a specification error rather than silently truncated. The
// map its check builds, each identifier's file name, is the server's
// directory.
func directory(prog *core.Program) ([]uint32, map[uint32]string, error) {
	ids, names := make([]uint32, len(prog.Files)), make(map[uint32]string, len(prog.Files))
	for i, info := range prog.Files {
		if info.Name == "" {
			if uint64(i) > math.MaxUint32 {
				return nil, nil, fmt.Errorf("server: file table has %d entries, exceeding the uint32 identifier space: %w",
					len(prog.Files), bcerr.ErrBadSpec)
			}
			ids[i] = uint32(i)
		} else {
			ids[i] = FileID(info.Name)
		}
		if prev, dup := names[ids[i]]; dup {
			return nil, nil, fmt.Errorf("server: file ID collision between %q and %q (id %d): %w",
				prev, info.Name, ids[i], bcerr.ErrBadSpec)
		}
		names[ids[i]] = info.Name
	}
	return ids, names, nil
}

// Range is a server's share of a file's code when the Of servers that
// carry the file split one dispersal between them: of the code of width
// Of·N it sends blocks [Index·N, (Index+1)·N), N being the file's
// rotation width in the program. The zero Range is the whole code of
// width N.
type Range struct{ Index, Of int }

// New is NewSplit with nil ranges, for the benchmark harness (cmd/bdload).
func New(prog *core.Program, contents map[string][]byte, from ...*Server) (*Server, error) {
	return NewSplit(prog, contents, nil, from...)
}

// NewSplit disperses contents (keyed by file name) according to the
// program's per-file (M, N) parameters. A file contents does not name
// is sent as the first of the from servers that carries it sends it:
// the same bytes and the same Range. Every file of the program must be
// in one or the other.
//
// A file that one of the from servers already dispersed — same
// identifier, same (M, N), and the very same contents slice (backing
// array and length; contents are never mutated once handed over, so
// identity is equality, checked in O(1)) — is carried over: the new
// server shares that server's immutable blocks and frames. Only the
// rest is encoded, straight into its frames (DisperseFramesRange); with
// no from server (nil ones are skipped) that is every file. A build
// sizes every frame it encodes first: the frames of its small files
// share one slab, and a file whose frames reach largeFrames gets a slab
// of its own. A carried small file keeps the slab of the build that
// encoded it alive, so a server holds at most its large files' frames
// and the slabs of the builds its small files came from.
//
// The server sends only its Range of the files of contents that ranges
// names (the others of contents whole, and a file contents lacks as its
// from server does; nil ranges send every file whole), and carries a
// file over only from a server that sent the same range of it. The
// numbering rule: the program still counts a file's rotation in
// positions 0…N−1, and position p is block Index·N+p of the code of
// width Of·N, its own number in the block's Seq. The rows of the systematic code do not
// depend on its width, so range 0 holds the payloads an unsplit server
// sends and the others parity only. Whatever its range a server sends
// N distinct blocks of a code any M of which rebuild the file, so every
// window the program keeps for a listener of this server alone still
// holds; a listener of several servers may pool what it hears, since
// blocks of different ranges are never the same block.
func NewSplit(prog *core.Program, contents map[string][]byte, ranges map[string]Range, from ...*Server) (*Server, error) {
	ids, names, err := directory(prog)
	if err != nil {
		return nil, err
	}
	s := &Server{
		prog:   prog,
		ids:    ids,
		names:  names,
		data:   make([][]byte, len(prog.Files)),
		ranges: make([]Range, len(prog.Files)),
		blocks: make([][]ida.Block, len(prog.Files)),
		frames: make([][][]byte, len(prog.Files)),
	}
	// Size the frames of every file not carried over, then encode them:
	// the small files' frames back to back in one slab, their blocks in
	// one store and one frame table; a large file has its own three.
	codecs, packed, rows := make([]*ida.Codec, len(prog.Files)), 0, 0
	for i, info := range prog.Files {
		data, ok := contents[info.Name]
		if s.ranges[i] = ranges[info.Name]; s.ranges[i].Of == 0 {
			s.ranges[i] = Range{Index: 0, Of: 1}
		}
		for _, b := range from {
			if !ok && b != nil {
				data, s.ranges[i], ok = b.Source(info.Name)
			}
		}
		if !ok {
			return nil, fmt.Errorf("server: no contents for file %q: %w", info.Name, bcerr.ErrBadSpec)
		}
		s.data[i] = data
		if s.carry(i, from) {
			continue
		}
		wire := 0
		if codecs[i], err = ida.Shared(info.M, s.ranges[i].Of*info.N); err == nil {
			wire, err = codecs[i].FrameLen(len(data))
		}
		if err != nil {
			return nil, fmt.Errorf("server: dispersing %q: %w", info.Name, err)
		}
		if size := wire * info.N; size < largeFrames {
			packed, rows = packed+size, rows+info.N
		}
	}
	slab, store, frames := make([]byte, packed), make([]ida.Block, rows), make([][]byte, rows)
	for i, info := range prog.Files {
		if codecs[i] == nil {
			continue
		}
		wire, _ := codecs[i].FrameLen(len(s.data[i]))
		n, own := info.N, slab
		if size := wire * n; size >= largeFrames {
			own, s.blocks[i], s.frames[i] = make([]byte, size), make([]ida.Block, n), make([][]byte, n)
		} else {
			own, slab = slab[:size], slab[size:]
			s.blocks[i], s.frames[i], store, frames = store[:n:n], frames[:n:n], store[n:], frames[n:]
		}
		first := s.ranges[i].Index * n
		if err := codecs[i].DisperseFramesRange(s.ids[i], s.data[i], first, first+n, own, s.blocks[i], s.frames[i]); err != nil {
			return nil, fmt.Errorf("server: dispersing %q: %w", info.Name, err)
		}
		s.encoded++
	}
	return s, nil
}

// carry adopts file i's blocks and frames from the first of the from
// servers that dispersed the same bytes the same way, and reports
// whether one had.
func (s *Server) carry(i int, from []*Server) bool {
	info, data := s.prog.Files[i], s.data[i]
	for _, b := range from {
		if b == nil {
			continue
		}
		j := b.prog.FileIndex(info.Name)
		if j < 0 || b.ids[j] != s.ids[i] || b.prog.Files[j].M != info.M || b.prog.Files[j].N != info.N || b.ranges[j] != s.ranges[i] {
			continue
		}
		if was := b.data[j]; len(was) == len(data) && &was[0] == &data[0] {
			s.blocks[i], s.frames[i] = b.blocks[j], b.frames[j]
			return true
		}
	}
	return false
}

// Source returns the contents the server dispersed the named file from
// and the Range of its code it sends, and whether it carries the file.
func (s *Server) Source(name string) ([]byte, Range, bool) {
	i := s.prog.FileIndex(name)
	if i < 0 {
		return nil, Range{}, false
	}
	return s.data[i], s.ranges[i], true
}

// Encoded returns how many files New dispersed; the others were carried
// over from the servers it was given.
func (s *Server) Encoded() int { return s.encoded }

// Names returns the directory mapping broadcast identifiers to file
// names — the application metadata a client needs to resolve requests
// against the self-identifying block stream. The returned map is the
// server's own immutable directory (a Server never changes after New):
// callers share it and must treat it as read-only rather than receive a
// fresh copy per call.
func (s *Server) Names() map[uint32]string { return s.names }

// Block returns the dispersed block at rotation position seq of file i
// of the program table and its marshaled wire form — what
// Program.BlockAt resolved a slot to, so the serve loop resolves each
// slot once; the block's own number is its Seq (see NewSplit). Both are
// the server's cached immutable forms, shared across emissions of the
// same block and across the servers that carried the file over, and they
// are one copy of the bytes: Block.Payload aliases the wire form past
// its header. Callers must copy before mutating either (fault injectors
// do).
//
//pinlint:hotpath
func (s *Server) Block(file, seq int) (*ida.Block, []byte) {
	return &s.blocks[file][seq], s.frames[file][seq]
}

// Emit returns the marshaled block transmitted in slot t, or nil for an
// idle slot (see Block for the sharing rule).
//
//pinlint:hotpath
func (s *Server) Emit(t int) []byte {
	if file, seq := s.prog.BlockAt(t); file != core.Idle {
		return s.frames[file][seq]
	}
	return nil
}

// EmitBlock returns the unmarshaled block for slot t (for tests and
// in-process clients), or nil for idle.
//
//pinlint:hotpath
func (s *Server) EmitBlock(t int) *ida.Block {
	if file, seq := s.prog.BlockAt(t); file != core.Idle {
		return &s.blocks[file][seq]
	}
	return nil
}
