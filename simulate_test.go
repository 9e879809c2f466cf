package pinbcast

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

func simFig6Program(t testing.TB) *Program {
	p, err := Build(BuildConfig{Layout: LayoutFlatSpread, Files: []FileSpec{
		{Name: "A", Blocks: 5, Latency: 1, DispersalWidth: 10},
		{Name: "B", Blocks: 3, Latency: 1, DispersalWidth: 6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func simFig6Contents() map[string][]byte {
	return map[string][]byte{
		"A": []byte("file A holds forty-two bytes of road data!!"),
		"B": []byte("file B: tank positions"),
	}
}

func TestFaultFreeRetrievalByteExact(t *testing.T) {
	rep, err := Simulate(SimConfig{
		Program:  simFig6Program(t),
		Contents: simFig6Contents(),
		Clients: []ClientSpec{
			{Start: 0, Requests: []Request{{File: "A"}, {File: "B"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(rep.Results))
	}
	for _, r := range rep.Results {
		if !r.Completed {
			t.Fatalf("request %q incomplete", r.File)
		}
		if !bytes.Equal(r.Data, simFig6Contents()[r.File]) {
			t.Fatalf("file %q content mismatch", r.File)
		}
	}
	// Fault-free: A completes within 8 slots (5 A-blocks in one period),
	// B within 7.
	for _, r := range rep.Results {
		if r.Latency > 8 {
			t.Fatalf("file %q latency %d > 8 without faults", r.File, r.Latency)
		}
	}
}

func TestClientStartsMidProgram(t *testing.T) {
	for start := 0; start < 16; start++ {
		rep, err := Simulate(SimConfig{
			Program:  simFig6Program(t),
			Contents: simFig6Contents(),
			Clients: []ClientSpec{
				{Start: start, Requests: []Request{{File: "A"}}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Results[0]
		if !r.Completed || !bytes.Equal(r.Data, simFig6Contents()["A"]) {
			t.Fatalf("start %d: retrieval failed", start)
		}
		if r.Latency > 8 {
			t.Fatalf("start %d: latency %d > 8", start, r.Latency)
		}
	}
}

func TestAdversarialErrorWithinTolerance(t *testing.T) {
	// Destroy one A-block reception: with dispersal 10-of-5 the client
	// just uses the next block; latency grows by at most δ_A·1 = 2
	// (Lemma 2), and content is still exact.
	prog := simFig6Program(t)
	occ := prog.Occurrences(0)
	rep, err := Simulate(SimConfig{
		Program:  prog,
		Contents: simFig6Contents(),
		Fault:    SlotFaults(occ[4]), // kill the 5th A reception
		Clients: []ClientSpec{
			{Start: 0, Requests: []Request{{File: "A", Deadline: 10}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if !r.Completed || !bytes.Equal(r.Data, simFig6Contents()["A"]) {
		t.Fatal("retrieval under single fault failed")
	}
	base := 8 // fault-free completion from slot 0
	if r.Latency > base+2 {
		t.Fatalf("latency %d exceeds Lemma 2 bound %d", r.Latency, base+2)
	}
	if r.Corrupted != 1 {
		t.Fatalf("corrupted count = %d, want 1", r.Corrupted)
	}
}

func TestFlatProgramPaysFullPeriod(t *testing.T) {
	// The same single fault against a non-dispersed flat program forces
	// the client to wait for the block's retransmission next period.
	prog, err := Build(BuildConfig{Layout: LayoutFlatSpread, Files: []FileSpec{
		{Name: "A", Blocks: 5, Latency: 1},
		{Name: "B", Blocks: 3, Latency: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	occ := prog.Occurrences(0)
	killed := occ[4]
	rep, err := Simulate(SimConfig{
		Program:  prog,
		Contents: simFig6Contents(),
		Fault:    SlotFaults(killed),
		Clients: []ClientSpec{
			{Start: 0, Requests: []Request{{File: "A"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if !r.Completed {
		t.Fatal("flat retrieval failed")
	}
	// The killed block recurs exactly one period (8 slots) later.
	if r.Latency != killed+1+8 {
		t.Fatalf("flat latency = %d, want %d", r.Latency, killed+1+8)
	}
}

func TestDeadlineMissAccounting(t *testing.T) {
	prog := simFig6Program(t)
	occ := prog.Occurrences(1) // B occurrences
	// Destroy three consecutive B receptions; the fourth is at slot 9,
	// so a deadline of 7 must be missed.
	faults := SlotFaults(occ[0], occ[1], occ[2])
	rep, err := Simulate(SimConfig{
		Program:  prog,
		Contents: simFig6Contents(),
		Fault:    faults,
		Clients: []ClientSpec{
			{Start: 0, Requests: []Request{{File: "B", Deadline: 7}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if !r.Completed {
		t.Fatal("retrieval should still complete, just late")
	}
	if r.DeadlineMet {
		t.Fatalf("deadline reported met with latency %d > 7", r.Latency)
	}
	if rep.MissRatio() != 1.0 {
		t.Fatalf("miss ratio = %v, want 1", rep.MissRatio())
	}
}

func TestBernoulliPopulationStatistics(t *testing.T) {
	prog := simFig6Program(t)
	var clients []ClientSpec
	for i := 0; i < 40; i++ {
		clients = append(clients, ClientSpec{
			Start:    i * 3,
			Requests: []Request{{File: "A", Deadline: 16}, {File: "B", Deadline: 16}},
		})
	}
	rep, err := Simulate(SimConfig{
		Program:  prog,
		Contents: simFig6Contents(),
		Fault:    BernoulliFaults(0.05, 13),
		Clients:  clients,
		Horizon:  4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range rep.PerFile {
		if st.Requests != 40 {
			t.Fatalf("file %s: %d requests", name, st.Requests)
		}
		if st.Completed < 38 {
			t.Fatalf("file %s: only %d/40 completed at 5%% loss", name, st.Completed)
		}
		if st.MeanLatency <= 0 || st.MeanLatency > 16 {
			t.Fatalf("file %s: mean latency %v implausible", name, st.MeanLatency)
		}
	}
	if rep.BlocksSent == 0 || rep.BlocksCorrupted == 0 {
		t.Fatal("loss accounting empty")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Simulate(SimConfig{}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty config: err = %v, want ErrBadSpec", err)
	}
	if _, err := Simulate(SimConfig{Program: simFig6Program(t), Contents: simFig6Contents()}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("no clients: err = %v, want ErrBadSpec", err)
	}
	if _, err := Simulate(SimConfig{
		Program: simFig6Program(t), Contents: simFig6Contents(),
		Clients: []ClientSpec{{Start: 2}},
	}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("client without requests: err = %v, want ErrBadSpec", err)
	}
	for _, cfg := range []SimConfig{
		{Horizon: -5, Clients: []ClientSpec{{Requests: []Request{{File: "A"}}}}},
		{Clients: []ClientSpec{{Start: -1, Requests: []Request{{File: "A"}}}}},
	} {
		cfg.Program, cfg.Contents = simFig6Program(t), simFig6Contents()
		if _, err := Simulate(cfg); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("horizon %d, start %d: err = %v, want ErrBadSpec", cfg.Horizon, cfg.Clients[0].Start, err)
		}
	}
	if _, err := Simulate(SimConfig{
		Program:  simFig6Program(t),
		Contents: map[string][]byte{"A": []byte("x")}, // missing B
		Clients:  []ClientSpec{{Requests: []Request{{File: "A"}}}},
	}); err == nil {
		t.Fatal("missing contents accepted")
	}
}

func TestEndToEndPinwheelProgram(t *testing.T) {
	// Full pipeline: spec → Eq 2 bandwidth → pinwheel program → server →
	// lossy channel → client, byte-for-byte.
	files := []FileSpec{
		{Name: "A", Blocks: 5, Latency: 10, Faults: 2},
		{Name: "B", Blocks: 3, Latency: 6, Faults: 1},
	}
	prog, err := Build(BuildConfig{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][]byte{
		"A": bytes.Repeat([]byte("IVHS segment data "), 20),
		"B": []byte("alert: accident at exit 14"),
	}
	rep, err := Simulate(SimConfig{
		Program:  prog,
		Contents: data,
		Fault:    BernoulliFaults(0.02, 99),
		Clients: []ClientSpec{
			{Start: 0, Requests: []Request{{File: "A"}, {File: "B"}}},
			{Start: 17, Requests: []Request{{File: "B"}}},
		},
		Horizon: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !r.Completed {
			t.Fatalf("request %q incomplete", r.File)
		}
		if !bytes.Equal(r.Data, data[r.File]) {
			t.Fatalf("file %q content mismatch", r.File)
		}
	}
}

func TestManyStartsExhaustiveDeadlines(t *testing.T) {
	// The designed guarantee: with r ≤ Faults adversarial errors, every
	// client meets latency T regardless of start slot. Exercise every
	// start over one data cycle with the worst single fault.
	files := []FileSpec{
		{Name: "A", Blocks: 3, Latency: 6, Faults: 1},
		{Name: "B", Blocks: 2, Latency: 5, Faults: 1},
	}
	prog, err := Build(BuildConfig{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	b := prog.Bandwidth
	data := map[string][]byte{"A": []byte("AAAAAAAAAAAA"), "B": []byte("BBBBBBBB")}
	for start := 0; start < prog.DataCycle(); start++ {
		for _, f := range files {
			occ := prog.Occurrences(indexOf(prog, f.Name))
			// Kill the first occurrence at or after start: the most
			// damaging single fault for this request.
			kill := -1
			for k := 0; k < len(occ)*4 && kill < 0; k++ {
				slot := occ[k%len(occ)] + (k/len(occ))*prog.Period
				if slot >= start {
					kill = slot
				}
			}
			rep, err := Simulate(SimConfig{
				Program:  prog,
				Contents: data,
				Fault:    SlotFaults(kill),
				Clients: []ClientSpec{
					{Start: start, Requests: []Request{{File: f.Name, Deadline: b * f.Latency}}},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			r := rep.Results[0]
			if !r.Completed || !r.DeadlineMet {
				t.Fatalf("start %d file %s: latency %d vs deadline %d (completed=%v)",
					start, f.Name, r.Latency, b*f.Latency, r.Completed)
			}
		}
	}
}

func indexOf(p *Program, name string) int {
	for i, f := range p.Files {
		if f.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("no file %q", name))
}

func BenchmarkSimulation(b *testing.B) {
	prog := simFig6Program(b)
	data := simFig6Contents()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Simulate(SimConfig{
			Program:  prog,
			Contents: data,
			Fault:    BernoulliFaults(0.05, int64(i)),
			Clients: []ClientSpec{
				{Start: 0, Requests: []Request{{File: "A"}, {File: "B"}}},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestSimulateFlushRequestOrder: requests the horizon cannot satisfy are
// reported in the order the client made them, run after run — the
// report must not depend on map iteration.
func TestSimulateFlushRequestOrder(t *testing.T) {
	order := []string{"zeta", "B", "A"} // zeta is never broadcast
	var reqs []Request
	for _, name := range order {
		reqs = append(reqs, Request{File: name, Deadline: 9})
	}
	for run := 0; run < 50; run++ {
		rep, err := Simulate(SimConfig{
			Program:  simFig6Program(t),
			Contents: simFig6Contents(),
			Clients:  []ClientSpec{{Start: 0, Requests: reqs}},
			Horizon:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rep.Results {
			if r.Completed {
				t.Fatalf("run %d: %q completed inside a 2-slot horizon", run, r.File)
			}
			got = append(got, r.File)
		}
		if !slices.Equal(got, order) {
			t.Fatalf("run %d: reported %v, want request order %v", run, got, order)
		}
	}
}
