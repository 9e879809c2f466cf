package pinbcast

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"pinbcast/internal/core"
	"pinbcast/internal/ida"
	"pinbcast/internal/server"
	"pinbcast/internal/workload"
)

// carried is what the model remembers of a file on the air: its spec
// and the very slice the station was handed.
type carried struct {
	spec FileSpec
	data []byte
}

// sameFile is the model's own notion of "nothing to encode": the same
// dispersal parameters and the same contents slice.
func sameFile(a, b carried) bool {
	return a.spec.Blocks == b.spec.Blocks && a.spec.Faults == b.spec.Faults &&
		len(a.data) == len(b.data) && &a.data[0] == &b.data[0]
}

// churnCatalogue is the 256-file catalogue of bdload's admit-churn
// workload and of BenchmarkControlPlane: one tolerated fault per file
// leaves the bandwidth headroom that admissions need.
func churnCatalogue() []FileSpec {
	files := workload.Random(256, 8, 10, 80, 0, 1)
	for i := range files {
		files[i].Faults = 1
	}
	return files
}

// generationModel pairs a generation's server with the model of it.
type generationModel struct {
	srv   *server.Server
	model map[string]carried
}

// differing counts the files of now that was lacks or holds otherwise.
func differing(now, was map[string]carried) int {
	n := 0
	for name, c := range now {
		if old, ok := was[name]; !ok || !sameFile(old, c) {
			n++
		}
	}
	return n
}

// sameForms fails unless got holds, for every file of prog, want's
// program, the same frames and the same Block fields as want.
func sameForms(t *testing.T, when string, prog *core.Program, got, want *server.Server) {
	t.Helper()
	for i, info := range prog.Files {
		for seq := 0; seq < info.N; seq++ {
			gb, gf := got.Block(i, seq)
			wb, wf := want.Block(i, seq)
			if !bytes.Equal(gf, wf) {
				t.Fatalf("%s: %s frame %d differs from a from-scratch New", when, info.Name, seq)
			}
			if gb.FileID != wb.FileID || gb.Seq != wb.Seq || gb.M != wb.M || gb.N != wb.N ||
				gb.Length != wb.Length || !bytes.Equal(gb.Payload, wb.Payload) {
				t.Fatalf("%s: %s block %d is %+v, want %+v", when, info.Name, seq, gb, wb)
			}
		}
	}
}

// TestCarryOverMatchesFromScratch drives a station through random
// control-plane steps and, after each, holds the latest generation to a
// from-scratch server.NewSplit over the model's contents: every frame and
// every Block field equal, and exactly the files that differ from the
// previous generation dispersed. Each new program is then built once
// more on top of an older generation, where a name the two share may
// have come back with other bytes or another width in between: carry-
// over keyed by name alone fails there.
func TestCarryOverMatchesFromScratch(t *testing.T) {
	const blockSize = 48
	for _, tc := range []struct {
		name  string
		files []FileSpec
		steps int
	}{
		{"random256", churnCatalogue(), 2000},
		{"ivhs", IVHSCatalog(6, 1), 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			fresh := func(f FileSpec) []byte {
				data := make([]byte, f.Blocks*blockSize)
				rng.Read(data)
				return data
			}
			model := map[string]carried{}
			initial := map[string][]byte{}
			for _, f := range tc.files {
				model[f.Name] = carried{f, fresh(f)}
				initial[f.Name] = model[f.Name].data
			}
			st, err := New(WithFiles(tc.files...), WithContents(initial))
			if err != nil {
				t.Fatal(err)
			}
			if got := st.latest.Load().srv.Encoded(); got != len(tc.files) {
				t.Fatalf("constructor dispersed %d of %d files", got, len(tc.files))
			}
			// off holds what is not broadcast: evicted files (with the
			// slice they last had) and a few that were never on.
			off := map[string]carried{}
			for i := 0; i < 4; i++ {
				f := FileSpec{Name: fmt.Sprintf("churn%d", i), Blocks: 1 + rng.Intn(4), Latency: 40 + rng.Intn(40), Faults: rng.Intn(2)}
				off[f.Name] = carried{f, fresh(f)}
			}
			contracted := map[string]carried{}
			pick := func(m map[string]carried) (carried, bool) {
				if len(m) == 0 {
					return carried{}, false
				}
				// Map order is random; the rng must be the only source of choice.
				names := slices.Sorted(maps.Keys(m))
				return m[names[rng.Intn(len(names))]], true
			}

			history := []generationModel{{st.latest.Load().srv, maps.Clone(model)}}
			kinds, stale := map[string]int{}, 0
			for step := 0; step < tc.steps; step++ {
				before, prev := st.latest.Load(), maps.Clone(model)
				var kind string
				var opErr error
				k := rng.Intn(8)
				if k < 4 && len(off) == 0 {
					k = 5
				}
				switch k {
				case 0, 1, 2, 3: // put a file that is off back on the air
					c, _ := pick(off)
					switch kind = []string{"admit", "negotiate", "new-contents", "new-faults"}[k]; kind {
					case "new-contents": // same name, same length, other bytes
						c.data = fresh(c.spec)
					case "new-faults": // same name, same slice: only N changes
						c.spec.Faults = 1 - c.spec.Faults
					}
					if kind == "negotiate" {
						_, opErr = st.Negotiate(c.spec, c.data)
					} else {
						opErr = st.Admit(c.spec, c.data)
					}
					if opErr == nil {
						model[c.spec.Name] = c
						delete(off, c.spec.Name)
						if kind == "negotiate" {
							contracted[c.spec.Name] = c
						}
					}
				case 4: // ReleaseTxn builds nothing
					for n := range contracted {
						if err := st.ReleaseTxn(n); err != nil {
							t.Fatalf("step %d: ReleaseTxn(%s): %v", step, n, err)
						}
						delete(contracted, n)
					}
					if st.latest.Load() != before {
						t.Fatalf("step %d: ReleaseTxn built a generation", step)
					}
					continue
				case 5: // Evict; a file under contract must stay
					kind = "evict"
					c, _ := pick(model)
					if held, ok := pick(contracted); ok && rng.Intn(2) == 0 {
						c, kind = held, "evict-contracted"
					}
					opErr = st.Evict(c.spec.Name)
					if _, held := contracted[c.spec.Name]; held != errors.Is(opErr, ErrAdmission) {
						t.Fatalf("step %d: evicting %s (contracted: %v): err = %v", step, c.spec.Name, held, opErr)
					}
					if opErr == nil {
						delete(model, c.spec.Name)
						off[c.spec.Name] = c
					}
				case 6: // a candidate no bandwidth could carry
					kind = "admit-hog"
					hog := FileSpec{Name: "hog", Blocks: 200, Latency: 1}
					if opErr = st.Admit(hog, make([]byte, 200*blockSize)); !errors.Is(opErr, ErrAdmission) {
						t.Fatalf("step %d: hog admitted: err = %v", step, opErr)
					}
				case 7: // a name already on the air, with other contents
					kind = "admit-duplicate"
					c, _ := pick(model)
					if opErr = st.Admit(c.spec, fresh(c.spec)); !errors.Is(opErr, ErrBadSpec) {
						t.Fatalf("step %d: duplicate %s admitted: err = %v", step, c.spec.Name, opErr)
					}
				}
				latest := st.latest.Load()
				if opErr != nil {
					if latest != before {
						t.Fatalf("step %d (%s): rejected with %v yet the generation changed", step, kind, opErr)
					}
					kind += "/rejected"
				}
				kinds[kind]++

				contents := make(map[string][]byte, len(model))
				for n, c := range model {
					contents[n] = c.data
					if own, _, _ := latest.srv.Source(n); len(own) != len(c.data) || &own[0] != &c.data[0] {
						t.Fatalf("step %d (%s): the station's contents of %s are not the slice it was handed", step, kind, n)
					}
				}
				if len(latest.program.Files) != len(model) {
					t.Fatalf("step %d (%s): %d files on the air, model has %d", step, kind, len(latest.program.Files), len(model))
				}
				want, err := server.NewSplit(latest.program, contents, nil)
				if err != nil {
					t.Fatalf("step %d (%s): from-scratch New: %v", step, kind, err)
				}
				sameForms(t, fmt.Sprintf("step %d (%s)", step, kind), latest.program, latest.srv, want)
				if latest == before {
					continue
				}
				if got, differ := latest.srv.Encoded(), differing(model, prev); got != differ {
					t.Fatalf("step %d (%s): dispersed %d files, %d differ from the previous generation", step, kind, got, differ)
				}
				// The same program once more, carried over from an older
				// generation: names it shares with this one may since have
				// come back with other contents or another width.
				old := history[rng.Intn(len(history))]
				again, err := server.NewSplit(latest.program, contents, nil, old.srv)
				if err != nil {
					t.Fatal(err)
				}
				sameForms(t, fmt.Sprintf("step %d (%s), carried from an older generation", step, kind), latest.program, again, want)
				differ := differing(model, old.model)
				if got := again.Encoded(); got != differ {
					t.Fatalf("step %d (%s): dispersed %d files, %d differ from the older generation", step, kind, got, differ)
				}
				stale += differ - latest.srv.Encoded()
				history = append(history, generationModel{latest.srv, maps.Clone(model)})
				if len(history) > 16 {
					history = history[1:]
				}
			}
			if stale < 100 {
				t.Errorf("older generations differed from the latest in only %d more files than its predecessor did", stale)
			}
			for _, k := range []string{"admit", "negotiate", "new-contents", "new-faults", "evict",
				"evict-contracted/rejected", "admit-hog/rejected", "admit-duplicate/rejected"} {
				if kinds[k] < 10 {
					t.Errorf("only %d %q steps in %d: %v", kinds[k], k, tc.steps, kinds)
				}
			}
		})
	}
}

// TestControlPlaneDispersesOnlyTheChange pins the counts the carry-over
// is for: on a 256-file station Negotiate disperses one file and Evict
// none.
func TestControlPlaneDispersesOnlyTheChange(t *testing.T) {
	files := churnCatalogue()
	st, err := New(WithFiles(files...), WithContents(workload.Contents(files, 64, 1)))
	if err != nil {
		t.Fatal(err)
	}
	churn := FileSpec{Name: "churn", Blocks: 4, Latency: 40, Faults: 1}
	if _, err := st.Negotiate(churn, make([]byte, 4*64)); err != nil {
		t.Fatal(err)
	}
	if got := st.latest.Load().srv.Encoded(); got != 1 {
		t.Errorf("Negotiate dispersed %d files, want 1", got)
	}
	if err := st.ReleaseTxn(churn.Name); err != nil {
		t.Fatal(err)
	}
	if err := st.Evict(churn.Name); err != nil {
		t.Fatal(err)
	}
	if got := st.latest.Load().srv.Encoded(); got != 0 {
		t.Errorf("Evict dispersed %d files, want 0", got)
	}
}

// TestSharedFramesSurviveFaultInjection: a lossy Receiver and a faulty
// simulated channel garble copies. Afterwards every frame of the
// station still decodes, and every block still aliases its frame.
func TestSharedFramesSurviveFaultInjection(t *testing.T) {
	files := IVHSCatalog(6, 1)
	contents := CatalogContents(files, 256, 1)
	st, err := New(WithFiles(files...), WithContents(contents))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, f := range files {
		reqs = append(reqs, Request{File: f.Name})
	}
	rcv, err := Subscribe(SlotSource(slots), withRequests(reqs...),
		WithReceiverFaults(BernoulliFaults(0.05, 5)))
	if err != nil {
		t.Fatal(err)
	}
	results, err := rcv.RunInto(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !bytes.Equal(r.Data, contents[r.File]) {
			t.Fatalf("%s reconstructed wrong under 5%% loss", r.File)
		}
	}
	if rcv.Metrics().Injected == 0 {
		t.Fatal("the fault model garbled nothing: the test exercised no injector")
	}
	cancel()

	// The simulated channel draws its faults over the station's own
	// program and contents.
	rep, err := Simulate(SimConfig{
		Program:  st.Program(),
		Contents: contents,
		Fault:    BernoulliFaults(0.05, 6),
		Clients:  []ClientSpec{{Requests: reqs}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksCorrupted == 0 {
		t.Fatal("the simulated channel corrupted nothing")
	}

	gen := st.latest.Load()
	var scratch ida.Block
	for i, info := range gen.program.Files {
		for seq := 0; seq < info.N; seq++ {
			blk, frame := gen.srv.Block(i, seq)
			if err := ida.UnmarshalInto(frame, &scratch); err != nil {
				t.Fatalf("%s frame %d: %v", info.Name, seq, err)
			}
			header := len(frame) - len(blk.Payload)
			if &blk.Payload[0] != &frame[header] {
				t.Fatalf("%s block %d no longer aliases its frame", info.Name, seq)
			}
			if !bytes.Equal(scratch.Payload, blk.Payload) || scratch.Seq != blk.Seq || scratch.FileID != blk.FileID {
				t.Fatalf("%s block %d and its frame disagree", info.Name, seq)
			}
		}
	}
}
