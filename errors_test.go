package pinbcast

import (
	"errors"
	"testing"

	"pinbcast/internal/pinwheel"
)

// The typed error hierarchy must be classifiable with errors.Is from
// the facade, wherever in the stack the failure originated.

func TestErrBadSpecFromCore(t *testing.T) {
	_, err := Build(BuildConfig{Files: []FileSpec{{Name: "A", Blocks: 0, Latency: 5}}})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
	if _, err := Build(BuildConfig{}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty build: err = %v, want ErrBadSpec", err)
	}
	if _, err := New(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty station: err = %v, want ErrBadSpec", err)
	}
}

// TestNilInputsAreBadSpecs: an unknown or empty name, wherever Build
// resolves one, and a nil database, wherever station options enter, are
// refused with ErrBadSpec, not run or dereferenced.
func TestNilInputsAreBadSpecs(t *testing.T) {
	files := []FileSpec{{Name: "A", Blocks: 2, Latency: 10, Faults: 1}}
	contents := CatalogContents(files, 16, 1)
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Build with an unknown scheduler", func() error {
			_, err := Build(BuildConfig{Files: files, Schedulers: []string{"mystery"}})
			return err
		}},
		{"Build with an empty scheduler name after a member that succeeds", func() error {
			_, err := Build(BuildConfig{Files: files, Schedulers: []string{SchedulerEDF, ""}})
			return err
		}},
		{"Build with an unknown layout", func() error {
			_, err := Build(BuildConfig{Files: files, Layout: "mystery"})
			return err
		}},
		{"NewCluster WithDatabase", func() error {
			_, err := NewCluster(WithFiles(files...), WithContents(contents),
				WithDatabase(nil, "combat"))
			return err
		}},
		{"WithDatabase", func() error {
			_, err := New(WithDatabase(nil, "combat"))
			return err
		}},
	} {
		if err := c.run(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", c.name, err)
		}
	}
}

func TestErrBadSpecFromAlgebra(t *testing.T) {
	// bc(i, 0, [5]), a condition without a latency vector, two wider
	// than GF(2⁸) can disperse (m + r = 300 and 269) and a latency past
	// the converter's bound, as §4 files at bandwidth 1.
	wide := make([]int, 70)
	for j := range wide {
		wide[j] = 300 + j
	}
	for _, bad := range []FileSpec{
		vectorFile("i", 0, 5),
		vectorFile("A", 2),
		vectorFile("B", 300, 600),
		vectorFile("C", 200, wide...),
		vectorFile("D", 1, 1<<22+1),
	} {
		if _, err := buildVectors([]FileSpec{bad}); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%+v: err = %v, want ErrBadSpec", bad, err)
		}
	}
}

func TestErrBadSpecFromPinwheel(t *testing.T) {
	_, err := pinwheel.Solve(TaskSystem{{A: 0, B: 3}}, nil)
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
}

func TestErrBandwidth(t *testing.T) {
	// A window of 1·1 = 1 slot cannot carry the five-block demand.
	_, err := Build(BuildConfig{
		Files:     []FileSpec{{Name: "A", Blocks: 5, Latency: 1}},
		Bandwidth: 1,
	})
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("err = %v, want ErrBandwidth", err)
	}
	if errors.Is(err, ErrBadSpec) {
		t.Fatalf("bandwidth failure classified as bad spec: %v", err)
	}
}

func TestErrInfeasible(t *testing.T) {
	// Density 6/4 > 1 at bandwidth 4: provably unschedulable, while
	// each task fits its own window.
	_, err := Build(BuildConfig{
		Files: []FileSpec{
			{Name: "A", Blocks: 3, Latency: 1},
			{Name: "B", Blocks: 3, Latency: 1},
		},
		Bandwidth: 4,
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// The same classification must hold through an explicit scheduler
	// chain.
	_, err = Build(BuildConfig{
		Files: []FileSpec{
			{Name: "A", Blocks: 3, Latency: 1},
			{Name: "B", Blocks: 3, Latency: 1},
		},
		Bandwidth:  4,
		Schedulers: []string{SchedulerEDF},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("chain: err = %v, want ErrInfeasible", err)
	}
}

func TestErrBandwidthFromNegativeBandwidth(t *testing.T) {
	// An explicit bandwidth below 1 is an error, never a request for
	// auto-sizing — only the zero value asks for Equation-1/2 sizing.
	_, err := Build(BuildConfig{
		Files:     []FileSpec{{Name: "A", Blocks: 2, Latency: 4}},
		Bandwidth: -1,
	})
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("err = %v, want ErrBandwidth", err)
	}
}

func TestErrSchedulerFailed(t *testing.T) {
	// The two-distinct specialization handles unit tasks only; the task
	// (2, 5) makes it fail without proving infeasibility.
	_, err := Build(BuildConfig{
		Files:      []FileSpec{{Name: "A", Blocks: 2, Latency: 1}},
		Bandwidth:  5,
		Schedulers: []string{SchedulerTwoDistinct},
	})
	if !errors.Is(err, ErrSchedulerFailed) {
		t.Fatalf("err = %v, want ErrSchedulerFailed", err)
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatalf("undecided instance classified infeasible: %v", err)
	}
}

func TestErrAdmission(t *testing.T) {
	st, err := New(WithFile(FileSpec{Name: "A", Blocks: 3, Latency: 10}, make([]byte, 3)), WithBandwidth(1))
	if err != nil {
		t.Fatal(err)
	}
	err = st.Admit(FileSpec{Name: "flood", Blocks: 50, Latency: 10}, make([]byte, 50))
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission", err)
	}
	// Candidates that cannot fit any window at the bandwidth are also
	// admission failures, not crashes.
	err = st.Admit(FileSpec{Name: "huge", Blocks: 300, Latency: 1}, make([]byte, 300))
	if !errors.Is(err, ErrAdmission) && !errors.Is(err, ErrBadSpec) {
		t.Fatalf("infeasible candidate: err = %v, want typed", err)
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	sentinels := []error{ErrBadSpec, ErrInfeasible, ErrBandwidth, ErrAdmission, ErrServing}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("sentinel %d vs %d: unexpected identity", i, j)
			}
		}
	}
}

// TestStationRefusesUnnamedFiles: a station names a file's blocks and
// contents by the file's name, so it refuses a file without one rather
// than air two under one FileID.
func TestStationRefusesUnnamedFiles(t *testing.T) {
	a, b := FileSpec{Blocks: 1, Latency: 4}, FileSpec{Blocks: 2, Latency: 8}
	contents := map[string][]byte{"": []byte("unnamed"), "named": []byte("named")}
	if _, err := New(WithFiles(a, b), WithContents(contents)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("New with two unnamed files: err = %v, want ErrBadSpec", err)
	}
	st, err := New(WithFile(FileSpec{Name: "named", Blocks: 1, Latency: 4}, contents["named"]))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Admit(b, contents[""]); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Admit of an unnamed file: err = %v, want ErrBadSpec", err)
	}
	if len(st.Files()) != 1 {
		t.Fatalf("a refused Admit changed the file set: %v", st.Files())
	}
}

// TestLatencyVectorRefusals: a file with a latency vector builds only
// under the pinwheel layout at a given bandwidth. Neither Equation 2 nor
// MinBandwidth sizes a vector, the other layouts bound none, and a
// station does not admit one, however it comes: New, NewCluster, Admit
// or Negotiate.
func TestLatencyVectorRefusals(t *testing.T) {
	vec := FileSpec{Name: "v", Blocks: 2, Latency: 10, Faults: 1, Latencies: []int{8, 10}}
	plain := FileSpec{Name: "p", Blocks: 1, Latency: 6}
	files := []FileSpec{plain, vec}
	contents := CatalogContents(files, 16, 1)
	if _, err := Build(BuildConfig{Files: files, Bandwidth: 2}); err != nil {
		t.Fatalf("pinwheel at bandwidth 2: %v", err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"Build at bandwidth 0", func() error {
			_, err := Build(BuildConfig{Files: files})
			return err
		}},
		{"MinBandwidth", func() error {
			_, err := MinBandwidth(files)
			return err
		}},
		{"New", func() error {
			_, err := New(WithFiles(files...), WithContents(contents), WithBandwidth(2))
			return err
		}},
		{"NewCluster", func() error {
			_, err := NewCluster(WithFiles(files...), WithContents(contents), WithBandwidth(4))
			return err
		}},
		{"Admit", func() error {
			st, err := New(WithFile(plain, contents[plain.Name]), WithBandwidth(2))
			if err != nil {
				return err
			}
			return st.Admit(vec, contents[vec.Name])
		}},
		{"Negotiate", func() error {
			st, err := New(WithFile(plain, contents[plain.Name]), WithBandwidth(2))
			if err != nil {
				return err
			}
			_, err = st.Negotiate(vec, contents[vec.Name])
			return err
		}},
	}
	for _, layout := range LayoutNames() {
		if layout != LayoutPinwheel {
			cases = append(cases, struct {
				name string
				run  func() error
			}{"Build under " + layout, func() error {
				_, err := Build(BuildConfig{Files: files, Bandwidth: 2, Layout: layout})
				return err
			}})
		}
	}
	for _, c := range cases {
		if err := c.run(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", c.name, err)
		}
	}
}
