package rtdb

import (
	"errors"
	"math/rand"
	"testing"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
)

func txnFiles() []core.FileSpec {
	return []core.FileSpec{
		{Name: "pos", Blocks: 2, Latency: 4, Faults: 1},
		{Name: "vel", Blocks: 1, Latency: 6},
		{Name: "map", Blocks: 4, Latency: 20},
	}
}

func TestTxnValidate(t *testing.T) {
	cases := []struct {
		x  Txn
		ok bool
	}{
		{Txn{Name: "t", Reads: []string{"a"}, Deadline: 5}, true},
		{Txn{Reads: []string{"a"}, Deadline: 5}, false},
		{Txn{Name: "t", Deadline: 5}, false},
		{Txn{Name: "t", Reads: []string{"a"}, Deadline: 0}, false},
	}
	for i, c := range cases {
		if err := c.x.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestGuaranteeTxn(t *testing.T) {
	files := txnFiles()
	b := core.SufficientBandwidth(files)
	// Reading pos+vel: bound = max(b·4, b·6) = 6b.
	ok, bound, err := GuaranteeTxn(files, b, Txn{Name: "nav", Reads: []string{"pos", "vel"}, Deadline: 6 * b})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || bound != 6*b {
		t.Fatalf("ok=%v bound=%d, want true, %d", ok, bound, 6*b)
	}
	// Too-tight deadline is refused.
	ok, _, err = GuaranteeTxn(files, b, Txn{Name: "nav", Reads: []string{"pos", "vel"}, Deadline: 6*b - 1})
	if err != nil || ok {
		t.Fatalf("tight deadline guaranteed (ok=%v, err=%v)", ok, err)
	}
	// Unknown item errors.
	if _, _, err := GuaranteeTxn(files, b, Txn{Name: "x", Reads: []string{"ghost"}, Deadline: 10}); err == nil {
		t.Fatal("unknown item accepted")
	}
}

func TestGuaranteeHoldsOnRealProgram(t *testing.T) {
	// The point of the whole construction: a guaranteed transaction
	// never exceeds its bound on the actual program, from any start.
	files := txnFiles()
	b := core.SufficientBandwidth(files)
	p, err := core.BuildProgramWith(files, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := Txn{Name: "nav", Reads: []string{"pos", "vel", "map"}, Deadline: 20 * b}
	ok, bound, err := GuaranteeTxn(files, b, x)
	if err != nil || !ok {
		t.Fatalf("guarantee: ok=%v err=%v", ok, err)
	}
	worst, err := TxnWorstLatency(p, x)
	if err != nil {
		t.Fatal(err)
	}
	if worst > bound {
		t.Fatalf("measured worst %d exceeds guaranteed bound %d", worst, bound)
	}
}

func TestTxnLatencyUnknownItem(t *testing.T) {
	files := txnFiles()
	p, err := core.BuildProgramWith(files, core.SufficientBandwidth(files), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TxnLatency(p, Txn{Name: "x", Reads: []string{"ghost"}, Deadline: 10}, 0); err == nil {
		t.Fatal("unknown item accepted")
	}
}

func TestTxnLatencyDominatedBySlowestRead(t *testing.T) {
	files := txnFiles()
	p, err := core.BuildProgramWith(files, core.SufficientBandwidth(files), nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := TxnWorstLatency(p, Txn{Name: "s", Reads: []string{"map"}, Deadline: 1000})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := TxnWorstLatency(p, Txn{Name: "m", Reads: []string{"pos", "vel", "map"}, Deadline: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if multi < single {
		t.Fatalf("adding reads reduced latency: %d < %d", multi, single)
	}
}

// slotWalk is the reference of TestTxnWorstLatencyMatchesStartSweep:
// the fault-free retrieval time of x from start, the broadcast walked
// slot by slot until each read's M-th slot.
func slotWalk(p *core.Program, x Txn, start int) int {
	worst := 0
	for _, name := range x.Reads {
		file := p.FileIndex(name)
		for t, seen := start, 0; ; t++ {
			if p.Slots[t%p.Period] == file {
				if seen++; seen == p.Files[file].M {
					worst = max(worst, t-start+1)
					break
				}
			}
		}
	}
	return worst
}

// TestTxnWorstLatencyMatchesStartSweep holds TxnLatency from every start
// slot of two periods, and TxnWorstLatency, to slotWalk maximized over
// those starts, on random programs (idle slots, single-occurrence files)
// and multi-read transactions.
func TestTxnWorstLatencyMatchesStartSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(5)
		infos := make([]core.FileInfo, n)
		slots := make([]int, n+rng.Intn(30))
		for s := range slots {
			slots[s] = rng.Intn(n+1) - 1
		}
		x := Txn{Name: "x", Deadline: 1}
		for i, s := range rng.Perm(len(slots))[:n] {
			slots[s] = i
			m := 1 + rng.Intn(4)
			infos[i] = core.FileInfo{Name: string(rune('a' + i)), M: m, N: m + 1, Demand: m}
			if i == 0 || rng.Intn(2) == 0 {
				x.Reads = append(x.Reads, infos[i].Name)
			}
		}
		p, err := core.NewProgram(infos, slots, 0, "random")
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for start := range 2 * len(slots) { // the second period checks the lap arithmetic
			ref := slotWalk(p, x, start)
			if lat, err := TxnLatency(p, x, start); err != nil || lat != ref {
				t.Fatalf("trial %d: TxnLatency from %d = %d, %v; the slot walk gives %d (reads %v on %v)",
					trial, start, lat, err, ref, x.Reads, slots)
			}
			want = max(want, ref)
		}
		if got, err := TxnWorstLatency(p, x); err != nil || got != want {
			t.Fatalf("trial %d: TxnWorstLatency = %d, %v; start sweep gives %d (reads %v on %v)",
				trial, got, err, want, x.Reads, slots)
		}
	}
	p, err := core.NewProgram([]core.FileInfo{{Name: "a", M: 1, N: 1, Demand: 1}}, []int{0}, 0, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TxnWorstLatency(p, Txn{Name: "x", Reads: []string{"ghost"}, Deadline: 1}); !errors.Is(err, bcerr.ErrBadSpec) {
		t.Fatalf("unknown item: err = %v, want ErrBadSpec", err)
	}
	if _, err := TxnWorstLatency(p, Txn{Name: "x", Reads: []string{"a"}}); !errors.Is(err, bcerr.ErrBadSpec) {
		t.Fatalf("no deadline: err = %v, want ErrBadSpec", err)
	}
}

func TestMaxStaleness(t *testing.T) {
	// AWACS aircraft at bandwidth 3 (unit 100 ms): window 12 slots;
	// server refresh every 4 slots → staleness ≤ 16 slots.
	if got := MaxStaleness(12, 4); got != 16 {
		t.Fatalf("staleness = %d", got)
	}
}
