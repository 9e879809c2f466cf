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

// Server holds the dispersed database and the broadcast program.
type Server struct {
	prog     *core.Program
	ids      []uint32 // per file: the stable broadcast identifier
	names    map[uint32]string
	blocks   [][]*ida.Block // per file: the N transmitted (AIDA-allocated) blocks
	payloads [][][]byte     // per file: the marshaled wire form of each block
}

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

// FileIDs derives the identifier table for a program and validates it:
// every file must map to a distinct uint32. A hash collision between
// two names — or a file table too large for the identifier space — is
// reported as a specification error rather than silently truncated.
func FileIDs(prog *core.Program) ([]uint32, error) {
	ids := make([]uint32, len(prog.Files))
	owner := make(map[uint32]int, len(prog.Files))
	for i, info := range prog.Files {
		if info.Name == "" {
			if uint64(i) > math.MaxUint32 {
				return nil, fmt.Errorf("server: file table has %d entries, exceeding the uint32 identifier space: %w",
					len(prog.Files), bcerr.ErrBadSpec)
			}
			ids[i] = uint32(i)
		} else {
			ids[i] = FileID(info.Name)
		}
		if prev, dup := owner[ids[i]]; dup {
			return nil, fmt.Errorf("server: file ID collision between %q and %q (id %d): %w",
				prog.Files[prev].Name, info.Name, ids[i], bcerr.ErrBadSpec)
		}
		owner[ids[i]] = i
	}
	return ids, nil
}

// New disperses contents (keyed by file name) according to the
// program's per-file (M, N) parameters. Every file of the program must
// have contents.
//
// Files sharing dispersal parameters are batch-encoded: one
// coefficient-major ida.DisperseBatch pass per distinct (M, N) pair
// streams each product table through the cache once for the whole
// group instead of once per file.
func New(prog *core.Program, contents map[string][]byte) (*Server, error) {
	ids, err := FileIDs(prog)
	if err != nil {
		return nil, err
	}
	s := &Server{
		prog:     prog,
		ids:      ids,
		names:    make(map[uint32]string, len(prog.Files)),
		blocks:   make([][]*ida.Block, len(prog.Files)),
		payloads: make([][][]byte, len(prog.Files)),
	}
	// Group the file table by (M, N), preserving table order within and
	// across groups so dispersal failures attribute deterministically.
	type encodeGroup struct {
		files []int    // indices into prog.Files
		datas [][]byte // contents, parallel to files
	}
	groups := make(map[[2]int]*encodeGroup)
	var order [][2]int
	for i, info := range prog.Files {
		s.names[ids[i]] = info.Name
		data, ok := contents[info.Name]
		if !ok {
			return nil, fmt.Errorf("server: no contents for file %q: %w", info.Name, bcerr.ErrBadSpec)
		}
		if len(data) == 0 {
			return nil, fmt.Errorf("server: dispersing %q: %w", info.Name, ida.ErrEmptyFile)
		}
		key := [2]int{info.M, info.N}
		g := groups[key]
		if g == nil {
			g = new(encodeGroup)
			groups[key] = g
			order = append(order, key)
		}
		g.files = append(g.files, i)
		g.datas = append(g.datas, data)
	}
	for _, key := range order {
		g := groups[key]
		codec, err := ida.Shared(key[0], key[1])
		if err != nil {
			return nil, fmt.Errorf("server: dispersing %q: %w", prog.Files[g.files[0]].Name, err)
		}
		payloads, err := codec.DisperseBatch(g.datas, nil)
		if err != nil {
			return nil, fmt.Errorf("server: dispersing %q: %w", prog.Files[g.files[0]].Name, err)
		}
		for k, i := range g.files {
			if err := s.addFile(i, ids[i], prog.Files[i], g.datas[k], payloads[k]); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// addFile wraps one file's dispersed payloads into self-identifying
// blocks, AIDA-allocates them across the full width N (the program
// already encodes the redundancy decision through its slot counts), and
// caches the marshaled wire forms.
func (s *Server) addFile(i int, id uint32, info core.FileInfo, data []byte, payloads [][]byte) error {
	blocks := make([]*ida.Block, len(payloads))
	for seq, p := range payloads {
		blocks[seq] = &ida.Block{
			FileID:  id,
			Seq:     uint16(seq),
			M:       uint16(info.M),
			N:       uint16(info.N),
			Length:  uint32(len(data)),
			Payload: p,
		}
	}
	alloc, err := ida.Allocate(blocks, info.N)
	if err != nil {
		return fmt.Errorf("server: allocating %q: %w", info.Name, err)
	}
	s.blocks[i] = alloc.Blocks()
	// Blocks are immutable once allocated: marshal each one now so
	// the broadcast loop reuses the wire form instead of allocating
	// per slot. All wire forms of a file share one contiguous slab —
	// one allocation per file instead of one per block, laid out in
	// rotation order for the serve loop's access pattern.
	s.payloads[i] = make([][]byte, len(s.blocks[i]))
	slabLen := 0
	for _, blk := range s.blocks[i] {
		slabLen += blk.WireSize()
	}
	slab := make([]byte, 0, slabLen)
	for seq, blk := range s.blocks[i] {
		start := len(slab)
		slab = blk.MarshalInto(slab)
		s.payloads[i][seq] = slab[start:len(slab):len(slab)]
	}
	return nil
}

// Program returns the broadcast program the server follows.
func (s *Server) Program() *core.Program { return s.prog }

// ID returns the broadcast identifier of file i of the program table.
func (s *Server) ID(i int) uint32 { return s.ids[i] }

// Names returns the directory mapping broadcast identifiers to file
// names — the application metadata a client needs to resolve requests
// against the self-identifying block stream. The returned map is the
// server's own immutable directory (a Server never changes after New):
// callers share it and must treat it as read-only rather than receive a
// fresh copy per call.
func (s *Server) Names() map[uint32]string { return s.names }

// Block returns dispersed block seq of file i of the program table and
// its marshaled wire form — what Program.BlockAt resolved a slot to, so
// the serve loop resolves each slot once. Both are the server's cached
// immutable copies, shared across emissions of the same block: callers
// must copy before mutating (fault injectors do).
//
//pinlint:hotpath
func (s *Server) Block(file, seq int) (*ida.Block, []byte) {
	return s.blocks[file][seq], s.payloads[file][seq]
}

// Emit returns the marshaled block transmitted in slot t, or nil for an
// idle slot (see Block for the sharing rule).
//
//pinlint:hotpath
func (s *Server) Emit(t int) []byte {
	if file, seq := s.prog.BlockAt(t); file != core.Idle {
		return s.payloads[file][seq]
	}
	return nil
}

// EmitBlock returns the unmarshaled block for slot t (for tests and
// in-process clients), or nil for idle.
//
//pinlint:hotpath
func (s *Server) EmitBlock(t int) *ida.Block {
	if file, seq := s.prog.BlockAt(t); file != core.Idle {
		return s.blocks[file][seq]
	}
	return nil
}
