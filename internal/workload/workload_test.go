package workload

import (
	"testing"

	"pinbcast/internal/core"
	"pinbcast/internal/rtdb"
)

func TestIVHSReproducible(t *testing.T) {
	a := IVHS(5, 42)
	b := IVHS(5, 42)
	if len(a) != len(b) || len(a) != 11 { // 2 per segment + map
		t.Fatalf("sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded generator diverged at %d", i)
		}
	}
	if err := core.ValidateAll(a); err != nil {
		t.Fatal(err)
	}
}

func TestIVHSSchedulable(t *testing.T) {
	files := IVHS(8, 7)
	bw := core.SufficientBandwidth(files)
	if _, err := core.BuildProgram(files, bw); err != nil {
		t.Fatalf("IVHS workload not schedulable at Eq-2 bandwidth: %v", err)
	}
}

func TestAWACSDatabase(t *testing.T) {
	db := AWACS()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"combat", "landing"} {
		files, err := db.FileSpecs(rtdb.Mode(mode))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		p, err := core.BuildProgram(files, core.SufficientBandwidth(files))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if p.Period < 1 {
			t.Fatalf("mode %s: empty program", mode)
		}
	}
}

func TestRandomBounds(t *testing.T) {
	files := Random(50, 8, 10, 100, 3, 99)
	for _, f := range files {
		if f.Blocks < 1 || f.Blocks > 8 {
			t.Fatalf("blocks %d out of range", f.Blocks)
		}
		if f.Latency < 10 || f.Latency > 100 {
			t.Fatalf("latency %d out of range", f.Latency)
		}
		if f.Faults < 0 || f.Faults > 3 {
			t.Fatalf("faults %d out of range", f.Faults)
		}
	}
	if err := core.ValidateAll(files); err != nil {
		t.Fatal(err)
	}
}

func TestContentsSizedToSpecs(t *testing.T) {
	files := Random(5, 4, 10, 20, 1, 1)
	data := Contents(files, 64, 2)
	for _, f := range files {
		if got := len(data[f.Name]); got != f.Blocks*64 {
			t.Fatalf("file %s: %d bytes, want %d", f.Name, got, f.Blocks*64)
		}
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for name, fn := range map[string]func(){
		"IVHS":   func() { IVHS(0, 1) },
		"Random": func() { Random(0, 1, 1, 1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad params did not panic", name)
				}
			}()
			fn()
		}()
	}
}
