package pinbcast

import (
	"fmt"
	"testing"
)

// catalogCases returns each exported scenario catalog as a concrete
// file set, small enough that every registered scheduler (including the
// exhaustive exact search) stays tractable.
func catalogCases(t *testing.T) map[string][]FileSpec {
	t.Helper()
	awacs, err := AWACSCatalog().FileSpecs("combat")
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]FileSpec{
		"ivhs":  IVHSCatalog(1, 1),
		"awacs": awacs,
	}
}

// catalogProgram is one program of catalogPrograms.
type catalogProgram struct {
	name  string // catalogue × layout × scheduler
	files []FileSpec
	prog  *Program
}

// catalogPrograms builds the scenario catalogs under every registered
// layout and — for the pinwheel construction, the only one that runs
// the chain — under every registered scheduler (chained with the
// portfolio, so a scheduler that cannot take a catalogue falls back). A
// combination that fails to build is reported and left out.
func catalogPrograms(t *testing.T) []catalogProgram {
	t.Helper()
	var out []catalogProgram
	for catName, files := range catalogCases(t) {
		for _, layout := range LayoutNames() {
			schedulers := []string{""}
			if layout == LayoutPinwheel {
				schedulers = SchedulerNames()
			}
			for _, sched := range schedulers {
				cfg := BuildConfig{Files: files, Layout: layout}
				if sched != "" {
					cfg.Schedulers = []string{sched, SchedulerPortfolio}
				}
				name := fmt.Sprintf("%s × %s × %s", catName, layout, sched)
				prog, err := Build(cfg)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				out = append(out, catalogProgram{name, files, prog})
			}
		}
	}
	return out
}

// TestCatalogsBuildUnderEveryLayoutAndScheduler asserts the scenario
// catalogs construct a broadcast program under every catalogPrograms
// combination, carrying every file.
func TestCatalogsBuildUnderEveryLayoutAndScheduler(t *testing.T) {
	for _, c := range catalogPrograms(t) {
		if c.prog.Period < 1 {
			t.Errorf("%s: empty program", c.name)
		}
		for _, f := range c.files {
			i := c.prog.FileIndex(f.Name)
			if i < 0 {
				t.Errorf("%s: %q not in program", c.name, f.Name)
				continue
			}
			if c.prog.PerPeriod(i) < 1 {
				t.Errorf("%s: %q never scheduled", c.name, f.Name)
			}
		}
	}
}

// TestCatalogContentsSizes asserts the fabricated contents match each
// spec's block count at every block size, and are deterministic in the
// seed.
func TestCatalogContentsSizes(t *testing.T) {
	for catName, files := range catalogCases(t) {
		for _, blockSize := range []int{1, 64, 128} {
			contents := CatalogContents(files, blockSize, 7)
			if len(contents) != len(files) {
				t.Fatalf("%s: contents for %d of %d files", catName, len(contents), len(files))
			}
			for _, f := range files {
				data, ok := contents[f.Name]
				if !ok {
					t.Fatalf("%s: no contents for %q", catName, f.Name)
				}
				if len(data) != f.Blocks*blockSize {
					t.Fatalf("%s: %q has %d bytes, want Blocks(%d)×%d = %d",
						catName, f.Name, len(data), f.Blocks, blockSize, f.Blocks*blockSize)
				}
			}
		}
		again := CatalogContents(files, 64, 7)
		other := CatalogContents(files, 64, 8)
		sameAsOther := true
		for _, f := range files {
			a := CatalogContents(files, 64, 7)[f.Name]
			if string(a) != string(again[f.Name]) {
				t.Fatalf("%s: contents not deterministic for %q", catName, f.Name)
			}
			if string(a) != string(other[f.Name]) {
				sameAsOther = false
			}
		}
		if sameAsOther {
			t.Fatalf("%s: different seeds produced identical contents", catName)
		}
	}
}

func TestHottestFiles(t *testing.T) {
	files := clusterCatalog()
	got := HottestFiles(files, 2)
	if len(got) != 2 || got[0] != "hot-a" || got[1] != "hot-b" {
		t.Fatalf("HottestFiles = %v, want [hot-a hot-b]", got)
	}
	if n := len(HottestFiles(files, 100)); n != len(files) {
		t.Fatalf("HottestFiles over-asked returned %d names", n)
	}
}
