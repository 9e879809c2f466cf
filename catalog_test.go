package pinbcast

import (
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

// TestCatalogsBuildUnderEveryLayoutAndScheduler asserts the scenario
// catalogs construct a broadcast program under every registered Layout
// and — for the pinwheel construction, the only one that consults the
// chain — under every registered Scheduler (chained with the portfolio,
// exactly as a Station configured with that scheduler would fall back).
func TestCatalogsBuildUnderEveryLayoutAndScheduler(t *testing.T) {
	portfolio, _ := LookupScheduler(SchedulerPortfolio)
	for catName, files := range catalogCases(t) {
		for _, layoutName := range LayoutNames() {
			layout, ok := LookupLayout(layoutName)
			if !ok {
				t.Fatalf("registered layout %q not found", layoutName)
			}
			schedulers := []string{""}
			if layoutName == LayoutPinwheel {
				schedulers = SchedulerNames()
			}
			for _, schedName := range schedulers {
				cfg := BuildConfig{Files: files, Layout: layout}
				if schedName != "" {
					s, ok := LookupScheduler(schedName)
					if !ok {
						t.Fatalf("registered scheduler %q not found", schedName)
					}
					cfg.Schedulers = []Scheduler{s, portfolio}
				}
				prog, err := Build(cfg)
				if err != nil {
					t.Errorf("%s × %s × %s: %v", catName, layoutName, schedName, err)
					continue
				}
				if prog.Period < 1 {
					t.Errorf("%s × %s × %s: empty program", catName, layoutName, schedName)
				}
				for _, f := range files {
					i := prog.FileIndex(f.Name)
					if i < 0 {
						t.Errorf("%s × %s × %s: %q not in program", catName, layoutName, schedName, f.Name)
						continue
					}
					if prog.PerPeriod(i) < 1 {
						t.Errorf("%s × %s × %s: %q never scheduled", catName, layoutName, schedName, f.Name)
					}
				}
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
