package pinbcast

import (
	"errors"
	"slices"
	"testing"

	"pinbcast/internal/core"
)

func TestLayoutRegistry(t *testing.T) {
	files := []FileSpec{{Name: "A", Blocks: 2, Latency: 4}, {Name: "B", Blocks: 1, Latency: 3}}
	def, err := Build(BuildConfig{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if pw, err := Build(BuildConfig{Files: files, Layout: LayoutPinwheel}); err != nil || !slices.Equal(pw.Slots, def.Slots) {
		t.Fatalf("the empty layout name is not %q: %v", LayoutPinwheel, err)
	}
	if _, err := Build(BuildConfig{Files: files, Layout: "no-such-layout"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown layout: err = %v, want ErrBadSpec", err)
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
	portfolio, err := core.BuildProgramWith(files, core.SufficientBandwidth(files), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each name runs its own construction, which its program's Origin
	// names: a Build that ignored the name would print the portfolio's.
	origin := map[string]string{
		LayoutPinwheel:       portfolio.Origin,
		LayoutTiered:         "multidisk",
		LayoutFlatSpread:     "flat-spread",
		LayoutFlatSequential: "flat-sequential",
	}
	for _, name := range LayoutNames() {
		p, err := Build(BuildConfig{Files: files, Layout: name})
		if err != nil {
			t.Fatalf("layout %q: %v", name, err)
		}
		if p.Origin != origin[name] {
			t.Fatalf("layout %q: program origin %q, want %q", name, p.Origin, origin[name])
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
	p, err := Build(BuildConfig{Files: files, Layout: LayoutTiered})
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
	p, err := Build(BuildConfig{Files: files, Layout: LayoutTiered})
	if err != nil {
		t.Fatal(err)
	}
	if hot, cold := p.PerPeriod(p.FileIndex("hot")), p.PerPeriod(p.FileIndex("cold")); hot != 8 || cold != 1 {
		t.Fatalf("slots per major cycle: hot %d cold %d, want 8 and 1", hot, cold)
	}
}

func TestBuildPinwheelLayoutComposesWithSchedulers(t *testing.T) {
	// Selecting the pinwheel layout by name keeps the scheduler chain in
	// force — the chain and the layout are orthogonal seams there.
	files := []FileSpec{{Name: "A", Blocks: 2, Latency: 1}}
	_, err := Build(BuildConfig{
		Files:      files,
		Bandwidth:  5,
		Schedulers: []string{SchedulerTwoDistinct},
		Layout:     LayoutPinwheel,
	})
	if !errors.Is(err, ErrSchedulerFailed) {
		t.Fatalf("err = %v, want ErrSchedulerFailed (chain must stay in force)", err)
	}
}
