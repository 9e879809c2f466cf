package pinbcast

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestLayoutRegistry(t *testing.T) {
	for _, name := range []string{LayoutPinwheel, LayoutTiered, LayoutFlatSpread, LayoutFlatSequential} {
		l, ok := LookupLayout(name)
		if !ok {
			t.Fatalf("layout %q not registered", name)
		}
		if l.Name() != name {
			t.Fatalf("layout %q reports name %q", name, l.Name())
		}
	}
	if _, ok := LookupLayout("no-such-layout"); ok {
		t.Fatal("unknown layout resolved")
	}
	want := []string{LayoutFlatSequential, LayoutFlatSpread, LayoutPinwheel, LayoutTiered}
	if names := LayoutNames(); !slices.Equal(names, want) {
		t.Fatalf("registered layouts: %v, want %v", names, want)
	}
}

func TestBuildWithEachLayout(t *testing.T) {
	files := []FileSpec{
		{Name: "hot", Blocks: 2, Latency: 4, Faults: 1},
		{Name: "warm", Blocks: 3, Latency: 12},
		{Name: "cold", Blocks: 4, Latency: 24, Faults: 1},
	}
	for _, name := range LayoutNames() {
		l, _ := LookupLayout(name)
		p, err := Build(BuildConfig{Files: files, Layout: l})
		if err != nil {
			t.Fatalf("layout %q: %v", name, err)
		}
		if len(p.Files) != len(files) {
			t.Fatalf("layout %q: %d files in program", name, len(p.Files))
		}
		// Every layout's program answers the shared analytics.
		for i := range files {
			mean, worst := p.LatencyProfile(i)
			if mean <= 0 || worst < int(mean) {
				t.Fatalf("layout %q file %d: mean %.1f worst %d", name, i, mean, worst)
			}
		}
	}
}

func TestTieredLayoutFavorsHotFiles(t *testing.T) {
	files := []FileSpec{
		{Name: "hot", Blocks: 1, Latency: 2},
		{Name: "cold", Blocks: 1, Latency: 16},
	}
	tiered, _ := LookupLayout(LayoutTiered)
	p, err := Build(BuildConfig{Files: files, Layout: tiered})
	if err != nil {
		t.Fatal(err)
	}
	if p.PerPeriod(0) <= p.PerPeriod(1) {
		t.Fatalf("hot %d slots vs cold %d: tiering lost", p.PerPeriod(0), p.PerPeriod(1))
	}
	hotMean, _ := p.LatencyProfile(0)
	coldMean, _ := p.LatencyProfile(1)
	if hotMean >= coldMean {
		t.Fatalf("hot mean %.1f not below cold mean %.1f", hotMean, coldMean)
	}
	// The weighted mean rewards matching skew, the objective this layout
	// optimizes.
	if hotHeavy, coldHeavy := p.WeightedMeanLatency([]float64{0.9, 0.1}),
		p.WeightedMeanLatency([]float64{0.1, 0.9}); hotHeavy >= coldHeavy {
		t.Fatalf("hot-heavy weighted mean %.2f not below cold-heavy %.2f", hotHeavy, coldHeavy)
	}
}

// TestAutoTierFacade: the "tiered" layout is the façade of the
// automatic tiering — latencies 2 and 16 land on disks spinning 8 : 1.
func TestAutoTierFacade(t *testing.T) {
	files := []FileSpec{
		{Name: "hot", Blocks: 1, Latency: 2},
		{Name: "cold", Blocks: 1, Latency: 16},
	}
	tiered, _ := LookupLayout(LayoutTiered)
	p, err := tiered.Plan(files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hot, cold := p.PerPeriod(p.FileIndex("hot")), p.PerPeriod(p.FileIndex("cold")); hot != 8 || cold != 1 {
		t.Fatalf("slots per major cycle: hot %d cold %d, want 8 and 1", hot, cold)
	}
}

func TestStationWithLayout(t *testing.T) {
	files := []FileSpec{
		{Name: "hot", Blocks: 1, Latency: 2},
		{Name: "cold", Blocks: 2, Latency: 16},
	}
	contents := map[string][]byte{"hot": []byte("h"), "cold": []byte("cold data")}
	tiered, _ := LookupLayout(LayoutTiered)
	st, err := New(WithFiles(files...), WithContents(contents), WithLayout(tiered))
	if err != nil {
		t.Fatal(err)
	}
	if st.Program().Origin != "multidisk" {
		t.Fatalf("origin = %q", st.Program().Origin)
	}
	// The default station runs the pinwheel construction.
	def, err := New(WithFiles(files...), WithContents(contents))
	if err != nil {
		t.Fatal(err)
	}
	if origin := def.Program().Origin; !strings.HasPrefix(origin, "pinwheel/") {
		t.Fatalf("default origin = %q", origin)
	}
	if _, err := New(WithFiles(files...), WithContents(contents),
		WithLayout(nil)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nil layout: err = %v", err)
	}
}

func TestCustomLayoutNamedPinwheelIsHonored(t *testing.T) {
	// Only the built-in pinwheel layout is special-cased; a custom
	// layout that reuses the name must still be dispatched.
	called := false
	custom := layoutFunc{LayoutPinwheel, func(files []FileSpec, _ int) (*Program, error) {
		called = true
		return FlatSpread(files)
	}}
	files := []FileSpec{{Name: "A", Blocks: 2, Latency: 4}}
	p, err := Build(BuildConfig{Files: files, Layout: custom})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("custom layout named pinwheel was silently bypassed")
	}
	if p.Origin != "flat-spread" {
		t.Fatalf("origin = %q", p.Origin)
	}
}

func TestBuildPinwheelLayoutComposesWithSchedulers(t *testing.T) {
	// Selecting the pinwheel layout by name keeps the scheduler chain in
	// force — the chain and the layout are orthogonal seams there.
	files := []FileSpec{{Name: "A", Blocks: 2, Latency: 1}}
	td, _ := LookupScheduler(SchedulerTwoDistinct)
	pw, _ := LookupLayout(LayoutPinwheel)
	_, err := Build(BuildConfig{
		Files:      files,
		Bandwidth:  5,
		Schedulers: []Scheduler{td},
		Layout:     pw,
	})
	if !errors.Is(err, ErrSchedulerFailed) {
		t.Fatalf("err = %v, want ErrSchedulerFailed (chain must stay in force)", err)
	}
}
