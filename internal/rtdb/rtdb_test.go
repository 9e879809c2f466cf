package rtdb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
)

func awacsItems() []Item {
	return []Item{
		{
			Name:     "aircraft-pos",
			Velocity: KmPerHour(900),
			Accuracy: 100,
			Blocks:   4,
			FaultsByMode: map[Mode]int{
				"combat":  2,
				"landing": 1,
			},
		},
		{
			Name:     "tank-pos",
			Velocity: KmPerHour(60),
			Accuracy: 100,
			Blocks:   2,
			FaultsByMode: map[Mode]int{
				"combat": 1,
			},
		},
	}
}

func TestPaperTemporalConstraints(t *testing.T) {
	// §1: 900 km/h with 100 m accuracy → 400 ms; 60 km/h → 6,000 ms.
	items := awacsItems()
	if got := items[0].TemporalConstraint(); got != 400*time.Millisecond {
		t.Fatalf("aircraft constraint = %v, want 400ms", got)
	}
	if got := items[1].TemporalConstraint(); got != 6*time.Second {
		t.Fatalf("tank constraint = %v, want 6s", got)
	}
}

func TestKmPerHour(t *testing.T) {
	if v := KmPerHour(900); v != 250 {
		t.Fatalf("900 km/h = %v m/s, want 250", v)
	}
}

func TestItemValidate(t *testing.T) {
	cases := []struct {
		it Item
		ok bool
	}{
		{Item{Name: "x", Velocity: 1, Accuracy: 1, Blocks: 1}, true},
		{Item{Velocity: 1, Accuracy: 1, Blocks: 1}, false},
		{Item{Name: "x", Velocity: 0, Accuracy: 1, Blocks: 1}, false},
		{Item{Name: "x", Velocity: 1, Accuracy: 0, Blocks: 1}, false},
		{Item{Name: "x", Velocity: 1, Accuracy: 1, Blocks: 0}, false},
		{Item{Name: "x", Velocity: 1, Accuracy: 1, Blocks: 1,
			FaultsByMode: map[Mode]int{"m": -1}}, false},
	}
	for i, c := range cases {
		if err := c.it.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestFileSpecsPerMode(t *testing.T) {
	db := &Database{Unit: 100 * time.Millisecond, Items: awacsItems()}
	combat, err := db.FileSpecs("combat")
	if err != nil {
		t.Fatal(err)
	}
	// Aircraft: 400ms / 100ms = 4 units; combat faults 2.
	if combat[0].Latency != 4 || combat[0].Faults != 2 {
		t.Fatalf("aircraft spec = %+v", combat[0])
	}
	// Tank: 6s / 100ms = 60 units; combat faults 1.
	if combat[1].Latency != 60 || combat[1].Faults != 1 {
		t.Fatalf("tank spec = %+v", combat[1])
	}
	landing, err := db.FileSpecs("landing")
	if err != nil {
		t.Fatal(err)
	}
	if landing[0].Faults != 1 || landing[1].Faults != 0 {
		t.Fatalf("landing faults = %d, %d", landing[0].Faults, landing[1].Faults)
	}
}

func TestModeScalingChangesBandwidth(t *testing.T) {
	db := &Database{Unit: 100 * time.Millisecond, Items: awacsItems()}
	bandwidth := func(mode Mode) int {
		files, err := db.FileSpecs(mode)
		if err != nil {
			t.Fatal(err)
		}
		return core.SufficientBandwidth(files)
	}
	if combat, landing := bandwidth("combat"), bandwidth("landing"); combat <= landing {
		t.Fatalf("combat bandwidth %d should exceed landing %d", combat, landing)
	}
}

func TestProgramConstruction(t *testing.T) {
	db := &Database{Unit: 100 * time.Millisecond, Items: awacsItems()}
	files, err := db.FileSpecs("combat")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildProgramWith(files, core.SufficientBandwidth(files), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		if err := p.VerifyWindows(i, f.Demand(), p.Bandwidth*f.Latency); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConstraintFinerThanUnit(t *testing.T) {
	db := &Database{Unit: time.Second, Items: awacsItems()} // aircraft needs 400ms
	if _, err := db.FileSpecs("combat"); err == nil {
		t.Fatal("constraint finer than unit accepted")
	}
}

func TestDatabaseValidate(t *testing.T) {
	if err := (&Database{Unit: 0, Items: awacsItems()}).Validate(); err == nil {
		t.Fatal("zero unit accepted")
	}
	if err := (&Database{Unit: time.Second}).Validate(); err == nil {
		t.Fatal("empty items accepted")
	}
	dup := &Database{Unit: time.Second, Items: []Item{
		{Name: "x", Velocity: 1, Accuracy: 10, Blocks: 1},
		{Name: "x", Velocity: 1, Accuracy: 10, Blocks: 1},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate items accepted")
	}
}

func TestAdmissionControl(t *testing.T) {
	base := []core.FileSpec{
		{Name: "A", Blocks: 5, Latency: 10, Faults: 1},
	}
	b := core.SufficientBandwidth(base)
	// A small item fits.
	small := core.FileSpec{Name: "S", Blocks: 1, Latency: 20}
	admitted, err := Admit(base, b, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 2 {
		t.Fatalf("admitted = %d files", len(admitted))
	}
	// A heavy item breaks the density bound and is rejected.
	huge := core.FileSpec{Name: "H", Blocks: 8, Latency: 10}
	if _, err := Admit(admitted, b, huge); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// The rejection must not have mutated the admitted set.
	if len(admitted) != 2 {
		t.Fatal("admitted set mutated by rejection")
	}
}

func TestAdmitValidatesCandidate(t *testing.T) {
	if _, err := Admit(nil, 1, core.FileSpec{Name: "bad"}); err == nil {
		t.Fatal("invalid candidate accepted")
	}
	// Window smaller than demand at this bandwidth.
	c := core.FileSpec{Name: "c", Blocks: 5, Latency: 1}
	if _, err := Admit(nil, 1, c); err == nil {
		t.Fatal("infeasible candidate accepted")
	}
}

// TestAdmitBatch holds batch admission to its refusal order — every
// candidate's validity, then the density of the whole set — and to
// leaving the admitted slice, spare capacity included, as it was.
func TestAdmitBatch(t *testing.T) {
	f := func(name string, blocks int) core.FileSpec {
		return core.FileSpec{Name: name, Blocks: blocks, Latency: 1}
	}
	// At bandwidth 10 a file of two blocks and latency 1 is density 0.2.
	admitted := make([]core.FileSpec, 1, 8)
	admitted[0] = f("A", 2)
	spare := admitted[:cap(admitted)]
	want := slices.Clone(spare)
	untouched := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(spare, want) {
			t.Fatalf("%s: admitted slice written: %v", when, spare)
		}
	}

	// 0.6 passes; the last candidate alone takes the batch to 0.8.
	if _, err := Admit(admitted, 10, f("B", 2), f("C", 2)); err != nil {
		t.Fatalf("a batch to density 0.6 refused: %v", err)
	}
	untouched("admitted batch")
	if _, err := Admit(admitted, 10, f("B", 2), f("C", 2), f("D", 2)); !errors.Is(err, ErrRejected) {
		t.Fatalf("a batch to density 0.8: err = %v, want ErrRejected", err)
	}
	untouched("batch over 7/10")

	// The first candidate crosses 7/10 on its own, but validity comes
	// first: an invalid last member makes the refusal ErrBadSpec. Its
	// dispersal width is below its demand, which its task cannot show.
	bad := f("bad", 2)
	bad.DispersalWidth = 1
	_, err := Admit(admitted, 10, f("H", 9), f("B", 1), bad)
	if !errors.Is(err, bcerr.ErrBadSpec) || errors.Is(err, ErrRejected) {
		t.Fatalf("a batch with an invalid member: err = %v, want ErrBadSpec alone", err)
	}
	untouched("batch with an invalid member")
}

// TestAdmitBatchIsTheFold checks on seeded batches that one Admit of a
// batch refuses exactly when admitting its candidates one at a time
// refuses one of them, and that both admit the same file set.
func TestAdmitBatchIsTheFold(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	file := func(i int) core.FileSpec {
		f := core.FileSpec{Name: fmt.Sprint("f", i), Blocks: 1 + rng.Intn(6), Latency: 1 + rng.Intn(40), Faults: rng.Intn(3)}
		if rng.Intn(40) == 0 {
			f.Blocks = 0 // invalid
		}
		return f
	}
	refused := 0
	for trial := 0; trial < 10000; trial++ {
		b := 1 + rng.Intn(12)
		admitted := make([]core.FileSpec, rng.Intn(6))
		for i := range admitted {
			admitted[i] = file(i)
		}
		batch := make([]core.FileSpec, 1+rng.Intn(5))
		for i := range batch {
			batch[i] = file(len(admitted) + i)
		}
		got, err := Admit(admitted, b, batch...)
		fold, foldErr := admitted, error(nil)
		for _, c := range batch {
			if fold, foldErr = Admit(fold, b, c); foldErr != nil {
				break
			}
		}
		if (err != nil) != (foldErr != nil) {
			t.Fatalf("b=%d admitted %v batch %v: batch err %v, fold err %v", b, admitted, batch, err, foldErr)
		}
		if err != nil {
			refused++
		} else if !reflect.DeepEqual(got, fold) {
			t.Fatalf("b=%d admitted %v batch %v: batch admits %v, fold %v", b, admitted, batch, got, fold)
		}
	}
	t.Logf("%d of 10000 batches refused", refused)
	if refused == 0 || refused == 10000 {
		t.Fatalf("%d of 10000 batches refused: the seeds test one verdict only", refused)
	}
}
