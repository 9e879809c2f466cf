package core

import (
	"encoding/json"
	"testing"
)

// loadProgram rebuilds a serialized program: the JSON form carries
// exactly what NewProgram needs, and NewProgram re-runs the checks of
// construction.
func loadProgram(data []byte) (*Program, error) {
	var raw programJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	return NewProgram(raw.Files, raw.Slots, raw.Bandwidth, raw.Origin)
}

func TestProgramJSONRoundTrip(t *testing.T) {
	files := []FileSpec{
		{Name: "A", Blocks: 5, Latency: 10, Faults: 2},
		{Name: "B", Blocks: 3, Latency: 6, Faults: 1},
	}
	p, err := BuildProgram(files, SufficientBandwidth(files))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Period != p.Period || got.Bandwidth != p.Bandwidth || got.Origin != p.Origin {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, p)
	}
	for i := range p.Slots {
		if got.Slots[i] != p.Slots[i] {
			t.Fatalf("slot %d differs", i)
		}
	}
	// The rebuilt occurrence index must behave identically.
	for tm := 0; tm < 3*p.Period; tm++ {
		f1, s1 := p.BlockAt(tm)
		f2, s2 := got.BlockAt(tm)
		if f1 != f2 || s1 != s2 {
			t.Fatalf("BlockAt(%d) differs: (%d,%d) vs (%d,%d)", tm, f1, s1, f2, s2)
		}
	}
	// And still verifies its windows.
	for i, f := range files {
		if err := got.VerifyWindows(i, f.Demand(), p.Bandwidth*f.Latency); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadProgramRejectsInvalid(t *testing.T) {
	cases := []string{
		`{`, // syntax
		`{"files": [{"Name":"A","M":1,"N":1,"Demand":1}], "slots": [5]}`,  // bad slot
		`{"files": [{"Name":"A","M":1,"N":1,"Demand":1}], "slots": []}`,   // empty
		`{"files": [{"Name":"A","M":1,"N":1,"Demand":1}], "slots": [-1]}`, // never scheduled
	}
	for i, c := range cases {
		if _, err := loadProgram([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
