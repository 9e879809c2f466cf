package cluster

import (
	"errors"
	"testing"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
	"pinbcast/internal/workload"
)

func catalog() []core.FileSpec {
	// Heats: hot 3/4, warm 3/10, mild 6/40, cool 8/80, cold 16/600.
	return []core.FileSpec{
		{Name: "cold", Blocks: 15, Latency: 600, Faults: 1},
		{Name: "hot", Blocks: 2, Latency: 4, Faults: 1},
		{Name: "cool", Blocks: 6, Latency: 80, Faults: 2},
		{Name: "warm", Blocks: 2, Latency: 10, Faults: 1},
		{Name: "mild", Blocks: 4, Latency: 40, Faults: 2},
	}
}

func TestHeatOrderAndHottest(t *testing.T) {
	got := Hottest(catalog(), 3)
	want := []string{"hot", "warm", "mild"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Hottest = %v, want %v", got, want)
		}
	}
	if n := len(Hottest(catalog(), 99)); n != 5 {
		t.Fatalf("Hottest over-asked returned %d names", n)
	}
}

func TestPlanQuorumProperty(t *testing.T) {
	// With R replicas on K channels, any R−1 deaths must leave every
	// replicated file with a live carrier.
	files := workload.Random(12, 4, 8, 120, 1, 7)
	for k := 2; k <= 4; k++ {
		for r := 2; r <= k; r++ {
			asn, err := Plan(files, k, r, 5, BalancedShard{})
			if err != nil {
				t.Fatalf("Plan(k=%d, r=%d): %v", k, r, err)
			}
			for name, rep := range asn.Replicated {
				if !rep {
					continue
				}
				homes := asn.Homes[name]
				if len(homes) != r {
					t.Fatalf("k=%d r=%d: %q has %d homes, want %d", k, r, name, len(homes), r)
				}
				seen := map[int]bool{}
				for _, c := range homes {
					if seen[c] {
						t.Fatalf("%q replicated twice on channel %d", name, c)
					}
					seen[c] = true
				}
			}
			for c, chFiles := range asn.Channels {
				if len(chFiles) == 0 {
					t.Fatalf("k=%d r=%d: channel %d empty", k, r, c)
				}
			}
		}
	}
}

func TestPlanPrimaryFirstAndUnreplicatedSingleHome(t *testing.T) {
	asn, err := Plan(catalog(), 3, 2, 2, BalancedShard{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range catalog() {
		homes := asn.Homes[f.Name]
		if len(homes) == 0 {
			t.Fatalf("%q has no home", f.Name)
		}
		if asn.Replicated[f.Name] {
			if len(homes) != 2 {
				t.Fatalf("replicated %q has homes %v", f.Name, homes)
			}
		} else if len(homes) != 1 {
			t.Fatalf("unreplicated %q has homes %v", f.Name, homes)
		}
		// The primary channel must list the file.
		found := false
		for _, cf := range asn.Channels[homes[0]] {
			if cf.Name == f.Name {
				found = true
			}
		}
		if !found {
			t.Fatalf("%q missing from its primary channel %d", f.Name, homes[0])
		}
	}
}

func TestBalancedShardLevelsHeat(t *testing.T) {
	files := workload.Random(24, 4, 8, 120, 1, 3)
	asn, err := Plan(files, 3, 1, 0, BalancedShard{})
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, 3)
	total := 0.0
	for c, chFiles := range asn.Channels {
		for _, f := range chFiles {
			loads[c] += Heat(f)
			total += Heat(f)
		}
	}
	for c, l := range loads {
		if l > 0.6*total {
			t.Fatalf("channel %d carries %.2f of %.2f total heat — not balanced", c, l, total)
		}
	}
}

func TestHashShardDeterministic(t *testing.T) {
	files := catalog()
	a1, _ := HashShard{}.Assign(files, 3)
	a2, _ := HashShard{}.Assign(files, 3)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("hash shard not deterministic")
		}
	}
}

func TestHotColdShardSeparatesTiers(t *testing.T) {
	files := catalog()
	asn, err := HotColdShard{}.Assign(files, 4)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, f := range files {
		byName[f.Name] = asn[i]
	}
	// Hot half (hot, warm, mild) lands on channels [0, 2); cold half on [2, 4).
	for _, name := range []string{"hot", "warm", "mild"} {
		if byName[name] >= 2 {
			t.Fatalf("hot file %q on cold channel %d", name, byName[name])
		}
	}
	for _, name := range []string{"cool", "cold"} {
		if byName[name] < 2 {
			t.Fatalf("cold file %q on hot channel %d", name, byName[name])
		}
	}
}

func TestPlanValidation(t *testing.T) {
	files := catalog()
	cases := []struct {
		name string
		run  func() error
	}{
		{"no files", func() error { _, err := Plan(nil, 2, 1, 0, HashShard{}); return err }},
		{"zero channels", func() error { _, err := Plan(files, 0, 1, 0, HashShard{}); return err }},
		{"more channels than files", func() error { _, err := Plan(files, 9, 1, 0, HashShard{}); return err }},
		{"replicas over k", func() error { _, err := Plan(files, 2, 3, 1, HashShard{}); return err }},
		{"replicas zero", func() error { _, err := Plan(files, 2, 0, 1, HashShard{}); return err }},
		{"hottest negative", func() error { _, err := Plan(files, 2, 2, -1, HashShard{}); return err }},
		{"nil shard", func() error { _, err := Plan(files, 2, 1, 0, nil); return err }},
		{"duplicate file", func() error {
			dup := append(append([]core.FileSpec{}, files...), files[0])
			_, err := Plan(dup, 2, 1, 0, HashShard{})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, bcerr.ErrBadSpec) {
			t.Errorf("%s: got %v, want ErrBadSpec", tc.name, err)
		}
	}
}

func TestDetectorGapAndTimeout(t *testing.T) {
	d := NewDetector(2, 3)
	// Contiguous slots keep the channel alive.
	for tt := 0; tt < 10; tt++ {
		if d.Observe(0, tt) {
			t.Fatal("contiguous stream declared dead")
		}
	}
	// A 2-slot gap is under threshold and a contiguous follow-up clears it.
	d.Observe(0, 12)
	if !d.Alive(0) {
		t.Fatal("sub-threshold gap killed channel")
	}
	d.Observe(0, 13)
	if d.Miss(0) || d.Miss(0) {
		t.Fatal("two timeouts after recovery should not kill (run was cleared)")
	}
	if d.Miss(0) != true {
		t.Fatal("third consecutive timeout should cross threshold 3")
	}
	if d.Alive(0) {
		t.Fatal("channel 0 should be dead")
	}
	// Channel 1 unaffected; a big gap kills it at once.
	if !d.Alive(1) {
		t.Fatal("channel 1 should be alive")
	}
	d.Observe(1, 0)
	if !d.Observe(1, 10) {
		t.Fatal("9-slot gap should cross threshold")
	}
	if got := d.Dead(); len(got) != 2 {
		t.Fatalf("Dead() = %v", got)
	}
	if d.Alive(0) || d.Alive(1) {
		t.Fatal("a dead channel came back")
	}
}

func TestDetectorFail(t *testing.T) {
	d := NewDetector(3, 0)
	if !d.Fail(2) {
		t.Fatal("first Fail should report the transition")
	}
	if d.Fail(2) {
		t.Fatal("second Fail should be idempotent")
	}
	if d.Alive(2) || !d.Alive(0) || !d.Alive(1) {
		t.Fatal("Fail must kill channel 2 and only channel 2")
	}
	// Observations on a dead channel change nothing.
	if d.Observe(2, 5) || d.Miss(2) {
		t.Fatal("dead channel reacted to observations")
	}
}
