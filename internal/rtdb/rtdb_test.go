package rtdb

import (
	"errors"
	"testing"
	"time"

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
	p, err := core.BuildProgram(files, core.SufficientBandwidth(files))
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
	admitted, err := Admit(base, small, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 2 {
		t.Fatalf("admitted = %d files", len(admitted))
	}
	// A heavy item breaks the density bound and is rejected.
	huge := core.FileSpec{Name: "H", Blocks: 8, Latency: 10}
	if _, err := Admit(admitted, huge, b); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// The rejection must not have mutated the admitted set.
	if len(admitted) != 2 {
		t.Fatal("admitted set mutated by rejection")
	}
}

func TestAdmitValidatesCandidate(t *testing.T) {
	if _, err := Admit(nil, core.FileSpec{Name: "bad"}, 1); err == nil {
		t.Fatal("invalid candidate accepted")
	}
	// Window smaller than demand at this bandwidth.
	c := core.FileSpec{Name: "c", Blocks: 5, Latency: 1}
	if _, err := Admit(nil, c, 1); err == nil {
		t.Fatal("infeasible candidate accepted")
	}
}
