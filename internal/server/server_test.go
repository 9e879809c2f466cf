package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
	"pinbcast/internal/gf256"
	"pinbcast/internal/gfmat"
	"pinbcast/internal/ida"
	"pinbcast/internal/workload"
)

func testProgram(t *testing.T) *core.Program {
	p, err := core.FlatSpread([]core.FileSpec{
		{Name: "A", Blocks: 5, Latency: 1, DispersalWidth: 10},
		{Name: "B", Blocks: 3, Latency: 1, DispersalWidth: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRequiresAllContents(t *testing.T) {
	if _, err := NewSplit(testProgram(t), map[string][]byte{"A": []byte("x")}, nil); err == nil {
		t.Fatal("missing file contents accepted")
	}
}

func TestEmitFollowsProgram(t *testing.T) {
	prog := testProgram(t)
	srv, err := NewSplit(prog, map[string][]byte{
		"A": []byte("contents of file A for dispersal"),
		"B": []byte("contents of B"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := 0; t0 < 48; t0++ {
		wantFile, wantSeq := prog.BlockAt(t0)
		blk := srv.EmitBlock(t0)
		if wantFile == core.Idle {
			if blk != nil {
				t.Fatalf("slot %d: expected idle", t0)
			}
			continue
		}
		if want := FileID(prog.Files[wantFile].Name); blk.FileID != want || int(blk.Seq) != wantSeq {
			t.Fatalf("slot %d: block (%d,%d), want (%d,%d)",
				t0, blk.FileID, blk.Seq, want, wantSeq)
		}
	}
}

func TestEmitMarshalRoundTrip(t *testing.T) {
	srv, err := NewSplit(testProgram(t), map[string][]byte{
		"A": []byte("AAAA AAAA AAAA AAAA"),
		"B": []byte("BBBB BBBB"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := srv.Emit(0)
	var blk ida.Block
	if err := ida.UnmarshalInto(raw, &blk); err != nil {
		t.Fatal(err)
	}
	if blk.FileID != FileID("A") {
		t.Fatalf("first slot block file = %d, want id of %q", blk.FileID, "A")
	}
}

func TestServerBlocksReconstruct(t *testing.T) {
	data := map[string][]byte{
		"A": []byte("any five of the ten blocks reconstruct this"),
		"B": []byte("any three of six"),
	}
	srv, err := NewSplit(testProgram(t), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Collect the first M blocks of file A as the program emits them.
	var got []*ida.Block
	for t0 := 0; len(got) < 5; t0++ {
		blk := srv.EmitBlock(t0)
		if blk != nil && blk.FileID == FileID("A") {
			got = append(got, blk)
		}
	}
	out, err := ida.ReconstructFileInto(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(data["A"]) {
		t.Fatalf("reconstructed %q", out)
	}
}

func TestFileIDsStableAndNamed(t *testing.T) {
	prog := testProgram(t)
	ids, _, err := directory(prog)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != FileID("A") || ids[1] != FileID("B") {
		t.Fatalf("ids = %v, want name-derived", ids)
	}
	// The identifier of a named file must not depend on its table
	// position: rebuild the program with the files swapped.
	swapped, err := core.FlatSpread([]core.FileSpec{
		{Name: "B", Blocks: 3, Latency: 1, DispersalWidth: 6},
		{Name: "A", Blocks: 5, Latency: 1, DispersalWidth: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids2, _, err := directory(swapped)
	if err != nil {
		t.Fatal(err)
	}
	if ids2[0] != ids[1] || ids2[1] != ids[0] {
		t.Fatalf("ids not stable under reordering: %v vs %v", ids, ids2)
	}
}

func TestFileIDCollisionRejected(t *testing.T) {
	// "costarring" and "liquid" are a classic FNV-32a collision pair.
	if FileID("costarring") != FileID("liquid") {
		t.Skip("collision pair no longer collides")
	}
	prog, err := core.FlatSpread([]core.FileSpec{
		{Name: "costarring", Blocks: 1, Latency: 1},
		{Name: "liquid", Blocks: 1, Latency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSplit(prog, map[string][]byte{
		"costarring": []byte("x"), "liquid": []byte("y"),
	}, nil); err == nil {
		t.Fatal("colliding file IDs accepted")
	} else if !errors.Is(err, bcerr.ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
}

// sameForms reports whether two servers hold byte-equal blocks and
// frames for every file of their (equal) programs.
func sameForms(t *testing.T, got, want *Server) {
	t.Helper()
	for i := range want.prog.Files {
		if len(got.blocks[i]) != len(want.blocks[i]) {
			t.Fatalf("file %d: %d blocks, want %d", i, len(got.blocks[i]), len(want.blocks[i]))
		}
		for seq := range want.blocks[i] {
			g, gf := got.Block(i, seq)
			w, wf := want.Block(i, seq)
			if !bytes.Equal(gf, wf) {
				t.Fatalf("file %d seq %d: frame differs from a from-scratch NewSplit", i, seq)
			}
			if g.FileID != w.FileID || g.Seq != w.Seq || g.M != w.M || g.N != w.N ||
				g.Length != w.Length || !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("file %d seq %d: block %+v, want %+v", i, seq, g, w)
			}
		}
	}
}

func TestNewCarriesUnchangedFiles(t *testing.T) {
	prog := testProgram(t)
	a, b := []byte("contents of file A for dispersal"), []byte("contents of B")
	base, err := NewSplit(prog, map[string][]byte{"A": a, "B": b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Encoded() != 2 {
		t.Fatalf("from-scratch NewSplit encoded %d files, want 2", base.Encoded())
	}
	wider, err := core.FlatSpread([]core.FileSpec{
		{Name: "A", Blocks: 5, Latency: 1, DispersalWidth: 10},
		{Name: "B", Blocks: 3, Latency: 1, DispersalWidth: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	b2 := bytes.Clone(b) // equal bytes in another array: not known to be the same file
	b3 := []byte("CONTENTS OF b")
	for _, tc := range []struct {
		name     string
		prog     *core.Program
		contents map[string][]byte
		from     []*Server
		encoded  int
	}{
		{"same slices", prog, map[string][]byte{"A": a, "B": b}, []*Server{base}, 0},
		{"nil base", prog, map[string][]byte{"A": a, "B": b}, []*Server{nil}, 2},
		{"other array", prog, map[string][]byte{"A": a, "B": b2}, []*Server{base}, 1},
		{"same name and length, other bytes", prog, map[string][]byte{"A": a, "B": b3}, []*Server{base}, 1},
		{"prefix of the same array", prog, map[string][]byte{"A": a[:20], "B": b}, []*Server{base}, 1},
		{"N changed", wider, map[string][]byte{"A": a, "B": b}, []*Server{base}, 1},
		{"second base has it", prog, map[string][]byte{"A": a, "B": b}, []*Server{nil, base}, 0},
	} {
		got, err := NewSplit(tc.prog, tc.contents, nil, tc.from...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Encoded() != tc.encoded {
			t.Errorf("%s: encoded %d files, want %d", tc.name, got.Encoded(), tc.encoded)
		}
		want, err := NewSplit(tc.prog, tc.contents, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameForms(t, got, want)
	}
}

// TestNewSplitCarriesOnEqualRange: a server that sends a range of a
// file's code numbers its blocks in the wide code and serves them by
// rotation position; range 0 carries the payloads of an unsplit server,
// ranges of one code pool into a reconstruction, and a file is carried
// over only from a server that sent the same range of it.
func TestNewSplitCarriesOnEqualRange(t *testing.T) {
	prog := testProgram(t)
	contents := map[string][]byte{"A": []byte("contents of file A for dispersal"), "B": []byte("contents of B")}
	whole, err := NewSplit(prog, contents, nil)
	if err != nil {
		t.Fatal(err)
	}
	homes := make([]*Server, 2)
	for j := range homes {
		if homes[j], err = NewSplit(prog, contents, map[string]Range{"A": {Index: j, Of: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	ia, n := prog.FileIndex("A"), prog.Files[prog.FileIndex("A")].N
	var pooled []*ida.Block
	for j, home := range homes {
		for p := 0; p < n; p++ {
			b, frame := home.Block(ia, p)
			if int(b.Seq) != j*n+p || int(b.N) != 2*n || !bytes.Equal(frame, b.MarshalInto(nil)) {
				t.Fatalf("home %d position %d: block %d of %d, want %d of %d", j, p, b.Seq, b.N, j*n+p, 2*n)
			}
			if w, _ := whole.Block(ia, p); j == 0 && !bytes.Equal(b.Payload, w.Payload) {
				t.Fatalf("home 0 position %d: payload differs from the unsplit server's", p)
			}
			if p < (prog.Files[ia].M+1-j)/2 { // the threshold, split between the homes
				pooled = append(pooled, b)
			}
		}
	}
	if got, err := ida.ReconstructFileInto(pooled, nil); err != nil || !bytes.Equal(got, contents["A"]) {
		t.Fatalf("%d blocks pooled from both homes do not reconstruct: %v", len(pooled), err)
	}
	sameForms(t, homes[1], mustSplit(t, prog, contents, Range{Index: 1, Of: 2}, homes[1]))
	for _, tc := range []struct {
		name    string
		r       Range
		from    *Server
		encoded int
	}{
		{"same range", Range{Index: 1, Of: 2}, homes[1], 0},
		{"other range of the same code", Range{Index: 1, Of: 2}, homes[0], 1},
		{"unsplit to range 0", Range{Index: 0, Of: 2}, whole, 1},
		{"range 0 to unsplit", Range{}, homes[0], 1},
		{"whole code, spelled out", Range{Index: 0, Of: 1}, whole, 0},
	} {
		if got := mustSplit(t, prog, contents, tc.r, tc.from); got.Encoded() != tc.encoded {
			t.Errorf("%s: encoded %d files, want %d", tc.name, got.Encoded(), tc.encoded)
		}
	}
}

func mustSplit(t *testing.T, prog *core.Program, contents map[string][]byte, r Range, from *Server) *Server {
	t.Helper()
	s, err := NewSplit(prog, contents, map[string]Range{"A": r}, from)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// referenceFrames is the wire form of the blocks a server sends of a
// file, computed from the definition as internal/ida's reference encode
// is — payload Seq = Σⱼ mat[Seq][j]·sourceⱼ over the m zero-padded
// source blocks, byte by byte with gf256.MulSlow — and framed by
// Block.MarshalInto: position p of range r is block r.Index·n+p of the
// code of width r.Of·n.
func referenceFrames(id uint32, data []byte, m, n int, r Range) [][]byte {
	mat := gfmat.SystematicVandermonde(r.Of*n, m)
	l := (len(data) + m - 1) / m
	padded := make([]byte, m*l)
	copy(padded, data)
	frames := make([][]byte, n)
	for p := range frames {
		seq := r.Index*n + p
		b := ida.Block{FileID: id, Seq: uint16(seq), M: uint16(m), N: uint16(r.Of * n), Length: uint32(len(data)), Payload: make([]byte, l)}
		for j := 0; j < m; j++ {
			for k := range b.Payload {
				b.Payload[k] ^= gf256.MulSlow(mat.At(seq, j), padded[j*l+k])
			}
		}
		frames[p] = b.MarshalInto(nil)
	}
	return frames
}

// span is the address range a byte slice covers.
type span struct{ lo, hi uintptr }

func spanOf(b []byte) span {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return span{lo, lo + uintptr(len(b))}
}

// checkFrames holds every frame srv sends to the reference encode and
// to ida.UnmarshalInto, its block's payload to the frame's tail, each
// frame's capacity to its length, and no two frames of srv to a shared
// byte. Of the files srv encoded itself (encoded[name]), the small
// ones' frames must lie back to back in one slab and each large one's
// back to back outside it.
func checkFrames(t *testing.T, srv *Server, encoded map[string]bool) {
	t.Helper()
	var all, small []span
	large := map[string][]span{}
	for i, info := range srv.prog.Files {
		want := referenceFrames(FileID(info.Name), srv.data[i], info.M, info.N, srv.ranges[i])
		size := 0
		for p := range want {
			blk, frame := srv.Block(i, p)
			if !bytes.Equal(frame, want[p]) {
				t.Fatalf("%s position %d: frame differs from the reference encode", info.Name, p)
			}
			var back ida.Block
			if err := ida.UnmarshalInto(frame, &back); err != nil {
				t.Fatalf("%s position %d: %v", info.Name, p, err)
			}
			if cap(frame) != len(frame) || cap(blk.Payload) != len(blk.Payload) || spanOf(blk.Payload).hi != spanOf(frame).hi {
				t.Fatalf("%s position %d: frame cap %d len %d, or its block's payload is not the frame's tail", info.Name, p, cap(frame), len(frame))
			}
			all, size = append(all, spanOf(frame)), size+len(frame)
		}
		if !encoded[info.Name] {
			continue
		}
		if size < largeFrames {
			small = append(small, all[len(all)-info.N:]...)
		} else {
			large[info.Name] = all[len(all)-info.N:]
		}
	}
	byStart := func(a, b span) int { return int(a.lo) - int(b.lo) }
	slices.SortFunc(all, byStart)
	for k := 1; k < len(all); k++ {
		if all[k].lo < all[k-1].hi {
			t.Fatalf("two frames share bytes: [%#x, %#x) and [%#x, %#x)", all[k-1].lo, all[k-1].hi, all[k].lo, all[k].hi)
		}
	}
	contiguous := func(what string, spans []span) span {
		slices.SortFunc(spans, byStart)
		for k := 1; k < len(spans); k++ {
			if spans[k].lo != spans[k-1].hi {
				t.Fatalf("%s: frames are not back to back in one slab", what)
			}
		}
		return span{spans[0].lo, spans[len(spans)-1].hi}
	}
	var slab span
	if len(small) > 0 {
		slab = contiguous("small files", small)
	}
	for name, spans := range large {
		if own := contiguous(name, spans); own.lo < slab.hi && slab.lo < own.hi {
			t.Fatalf("%s: a large file's frames lie in the small files' slab", name)
		}
	}
}

// TestBuildFramesDoNotTouch builds a mixed catalogue — 1 KiB and
// 64 KiB blocks, r from 0 to 3, the split ranges a Cluster uses, and
// files on either side of largeFrames — from scratch and again with one
// file changed, and checks every frame of both builds (checkFrames):
// and that the rebuild's carried files alias the first build's frames.
func TestBuildFramesDoNotTouch(t *testing.T) {
	one, err := ida.Shared(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	header, _ := one.FrameLen(1)
	header-- // a one-byte payload
	rng := rand.New(rand.NewSource(46))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	specs := []core.FileSpec{
		{Name: "k4r0", Blocks: 4, Faults: 0},
		{Name: "k8r3", Blocks: 8, Faults: 3},
		{Name: "k1r2", Blocks: 1, Faults: 2},
		{Name: "k2r1/3", Blocks: 2, Faults: 1},
		{Name: "below", Blocks: 1, Faults: 0},
		{Name: "at", Blocks: 1, Faults: 0},
		{Name: "w2r1", Blocks: 2, Faults: 1},
		{Name: "w3r3/2", Blocks: 3, Faults: 3},
		{Name: "w1r0/2", Blocks: 1, Faults: 0},
	}
	contents := map[string][]byte{
		"k4r0": fill(4<<10 - 5), "k8r3": fill(8 << 10), "k1r2": fill(7), "k2r1/3": fill(2<<10 - 1),
		"below": fill(largeFrames - header - 1), "at": fill(largeFrames - header),
		"w2r1": fill(128 << 10), "w3r3/2": fill(192<<10 - 3), "w1r0/2": fill(64 << 10),
	}
	ranges := map[string]Range{"k2r1/3": {Index: 2, Of: 3}, "w3r3/2": {Index: 1, Of: 2}, "w1r0/2": {Index: 0, Of: 2}}
	for i := range specs {
		specs[i].Latency = 64
	}
	prog, err := core.FlatSpread(specs)
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]bool{}
	for name := range contents {
		all[name] = true
	}
	base, err := NewSplit(prog, contents, ranges)
	if err != nil {
		t.Fatal(err)
	}
	checkFrames(t, base, all)

	changed := "k8r3"
	next := map[string][]byte{}
	for name, data := range contents {
		next[name] = data
	}
	next[changed] = bytes.Clone(contents[changed])
	next[changed][100] ^= 0xff
	rebuilt, err := NewSplit(prog, next, ranges, base)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Encoded() != 1 {
		t.Fatalf("rebuild encoded %d files, want 1", rebuilt.Encoded())
	}
	checkFrames(t, rebuilt, map[string]bool{changed: true})
	for i, info := range prog.Files {
		for p := 0; p < info.N; p++ {
			b, frame := rebuilt.Block(i, p)
			was, wasFrame := base.Block(i, p)
			if carried := b == was && &frame[0] == &wasFrame[0]; carried != (info.Name != changed) {
				t.Fatalf("%s position %d: shares the first build's block and frame: %v", info.Name, p, carried)
			}
		}
	}
}

// allocSpread bounds how many more allocations a from-scratch build of
// 256 small files makes than one of 16. Every table of a build — the
// per-file ones, the directory's presized map, the slab, the block
// store and the frame table — is allocated once whatever its length
// (both builds make 14 on Go 1.24), so the bound is slack for a map
// implementation that grows in pieces, far below one per file.
const allocSpread = 2

// TestBuildAllocatesPerBuild: a from-scratch build of admit-churn's
// shape (workload.Random(n, 8, 10, 80, 0, 1), r = 1, 1 KiB blocks)
// allocates per build, not per file.
func TestBuildAllocatesPerBuild(t *testing.T) {
	allocs := func(n int) float64 {
		files := workload.Random(n, 8, 10, 80, 0, 1)
		for i := range files {
			files[i].Faults = 1
		}
		prog, err := core.BuildProgramWith(files, core.SufficientBandwidth(files), nil)
		if err != nil {
			t.Fatal(err)
		}
		contents := workload.Contents(files, 1<<10, 1)
		return testing.AllocsPerRun(20, func() {
			if srv, err := NewSplit(prog, contents, nil); err != nil || srv.Encoded() != n {
				t.Fatalf("%d files: %v", n, err)
			}
		})
	}
	if few, many := allocs(16), allocs(256); many-few > allocSpread {
		t.Fatalf("a build of 256 files makes %.0f allocations, one of 16 makes %.0f: more than %d apart", many, few, allocSpread)
	} else {
		t.Logf("a build of 16 files makes %.0f allocations, one of 256 makes %.0f", few, many)
	}
}

// BenchmarkServerRebuild builds the 256-file admit-churn catalogue's
// server on top of a previous one in which all, all but one, or none of
// the contents slices are the ones being built from; changed=256 is a
// from-scratch NewSplit.
func BenchmarkServerRebuild(b *testing.B) {
	files := workload.Random(256, 8, 10, 80, 0, 1)
	for i := range files {
		files[i].Faults = 1
	}
	prog, err := core.BuildProgramWith(files, core.SufficientBandwidth(files), nil)
	if err != nil {
		b.Fatal(err)
	}
	contents := workload.Contents(files, 1<<10, 1)
	base, err := NewSplit(prog, contents, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, changed := range []int{0, 1, 256} {
		next := make(map[string][]byte, len(contents))
		for i, f := range files {
			next[f.Name] = contents[f.Name]
			if i < changed {
				next[f.Name] = bytes.Clone(contents[f.Name])
			}
		}
		b.Run(fmt.Sprintf("files=256/changed=%d", changed), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				srv, err := NewSplit(prog, next, nil, base)
				if err != nil {
					b.Fatal(err)
				}
				if srv.Encoded() != changed {
					b.Fatalf("encoded %d files, want %d", srv.Encoded(), changed)
				}
			}
		})
	}
}
