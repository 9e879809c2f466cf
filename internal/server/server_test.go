package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
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
	if _, err := New(testProgram(t), map[string][]byte{"A": []byte("x")}); err == nil {
		t.Fatal("missing file contents accepted")
	}
}

func TestEmitFollowsProgram(t *testing.T) {
	prog := testProgram(t)
	srv, err := New(prog, map[string][]byte{
		"A": []byte("contents of file A for dispersal"),
		"B": []byte("contents of B"),
	})
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
	srv, err := New(testProgram(t), map[string][]byte{
		"A": []byte("AAAA AAAA AAAA AAAA"),
		"B": []byte("BBBB BBBB"),
	})
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
	srv, err := New(testProgram(t), data)
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
	if _, err := New(prog, map[string][]byte{
		"costarring": []byte("x"), "liquid": []byte("y"),
	}); err == nil {
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
				t.Fatalf("file %d seq %d: frame differs from a from-scratch New", i, seq)
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
	base, err := New(prog, map[string][]byte{"A": a, "B": b})
	if err != nil {
		t.Fatal(err)
	}
	if base.Encoded() != 2 {
		t.Fatalf("from-scratch New encoded %d files, want 2", base.Encoded())
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
		got, err := New(tc.prog, tc.contents, tc.from...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Encoded() != tc.encoded {
			t.Errorf("%s: encoded %d files, want %d", tc.name, got.Encoded(), tc.encoded)
		}
		want, err := New(tc.prog, tc.contents)
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
	whole, err := New(prog, contents)
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

// BenchmarkServerRebuild builds the 256-file admit-churn catalogue's
// server on top of a previous one in which all, all but one, or none of
// the contents slices are the ones being built from; changed=256 is a
// from-scratch New.
func BenchmarkServerRebuild(b *testing.B) {
	files := workload.Random(256, 8, 10, 80, 0, 1)
	for i := range files {
		files[i].Faults = 1
	}
	prog, err := core.BuildProgram(files, core.SufficientBandwidth(files))
	if err != nil {
		b.Fatal(err)
	}
	contents := workload.Contents(files, 1<<10, 1)
	base, err := New(prog, contents)
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
				srv, err := New(prog, next, base)
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
