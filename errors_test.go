package pinbcast

import (
	"errors"
	"testing"
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

func TestErrBadSpecFromAlgebra(t *testing.T) {
	// bc(i, 0, [5]) and a condition without a latency vector, through
	// the generalized construction that converts them.
	for _, bad := range []GenFileSpec{
		{Name: "i", Blocks: 0, Latencies: []int{5}},
		{Name: "A", Blocks: 2, Latencies: nil},
	} {
		if _, err := BuildGeneralizedProgram([]GenFileSpec{bad}); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%+v: err = %v, want ErrBadSpec", bad, err)
		}
	}
}

func TestErrBadSpecFromPinwheel(t *testing.T) {
	portfolio, _ := LookupScheduler(SchedulerPortfolio)
	_, err := portfolio.Schedule(TaskSystem{{A: 0, B: 3}})
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
	edf, _ := LookupScheduler(SchedulerEDF)
	_, err = Build(BuildConfig{
		Files: []FileSpec{
			{Name: "A", Blocks: 3, Latency: 1},
			{Name: "B", Blocks: 3, Latency: 1},
		},
		Bandwidth:  4,
		Schedulers: []Scheduler{edf},
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
	td, _ := LookupScheduler(SchedulerTwoDistinct)
	_, err := Build(BuildConfig{
		Files:      []FileSpec{{Name: "A", Blocks: 2, Latency: 1}},
		Bandwidth:  5,
		Schedulers: []Scheduler{td},
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
