package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pinbcast/internal/bcerr"
)

// The reference side of TestSparseIndexMatchesDenseReference: what
// Program computed before the sparse occurrence index, by prefix table
// and slot-by-slot scans over one period. It shares no code with the
// index it checks.

// denseWindowsOK counts the file's slots in the window at every start.
func denseWindowsOK(slots []int, file, need, window int) bool {
	p := len(slots)
	prefix := make([]int, p+1)
	for t, v := range slots {
		prefix[t+1] = prefix[t]
		if v == file {
			prefix[t+1]++
		}
	}
	full, rem := window/p, window%p
	for start := 0; start < p; start++ {
		got := full * prefix[p]
		if end := start + rem; end <= p {
			got += prefix[end] - prefix[start]
		} else {
			got += prefix[p] - prefix[start] + prefix[end-p]
		}
		if got < need {
			return false
		}
	}
	return true
}

// scanLatency walks the broadcast from start until the file's m-th slot.
func scanLatency(slots []int, file, m, start int) int {
	for t, seen := start, 0; ; t++ {
		if slots[t%len(slots)] == file {
			if seen++; seen == m {
				return t - start + 1
			}
		}
	}
}

func TestSparseIndexMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rejected, checked := 0, 0
	for trial := 0; trial < 25000; trial++ {
		n := 1 + rng.Intn(4)
		files := make([]FileInfo, n)
		slots := make([]int, n+rng.Intn(24))
		for t := range slots {
			slots[t] = rng.Intn(n+1) - 1 // Idle is −1
		}
		for i, t := range rng.Perm(len(slots))[:n] {
			slots[t] = i // every file at least once, some exactly once
			m := 1 + rng.Intn(4)
			files[i] = FileInfo{Name: string(rune('a' + i)), M: m, N: m + rng.Intn(3), Demand: m}
		}
		p, err := NewProgram(files, slots, 0, "random")
		if err != nil {
			t.Fatal(err)
		}
		period := len(slots)
		sent := make([]int, n) // blocks of each file so far
		for at := 0; at < 3*period; at++ {
			f, seq := p.BlockAt(at)
			if want := slots[at%period]; f != want || (f != Idle && seq != sent[f]%files[f].N) {
				t.Fatalf("trial %d: BlockAt(%d) = (%d, %d) on %v", trial, at, f, seq, slots)
			}
			if f != Idle {
				sent[f]++
			}
		}
		for i, info := range files {
			var occ []int
			for t, v := range slots {
				if v == i {
					occ = append(occ, t)
				}
			}
			if got := p.Occurrences(i); !slices.Equal(got, occ) || p.PerPeriod(i) != len(occ) {
				t.Fatalf("trial %d: Occurrences(%d) = %v on %v", trial, i, got, slots)
			}
			total, worst := 0, 0
			for start := range slots {
				lat := scanLatency(slots, i, info.M, start)
				total, worst = total+lat, max(worst, lat)
			}
			mean, gotWorst := p.LatencyProfile(i)
			if mean != float64(total)/float64(period) || gotWorst != worst || p.WorstLatency(i) != worst {
				t.Fatalf("trial %d: LatencyProfile(%d) = %v, %d, scan gives %d/%d, %d on %v (M=%d)",
					trial, i, mean, gotWorst, total, period, worst, slots, info.M)
			}
			gaps := make([]int, len(occ))
			for k := range occ {
				gaps[k] = (occ[(k+1)%len(occ)]-occ[k]+period-1)%period + 1
			}
			if got := p.Gaps(i); !slices.Equal(got, gaps) || p.MaxGap(i) != slices.Max(gaps) {
				t.Fatalf("trial %d: Gaps(%d) = %v, MaxGap %d on %v", trial, i, got, p.MaxGap(i), slots)
			}
			// Windows shorter than, longer than and a whole multiple of
			// the period; demands around what the slots can supply.
			window := [...]int{1 + rng.Intn(period), period + 1 + rng.Intn(2*period), period * (1 + rng.Intn(3))}[rng.Intn(3)]
			need := rng.Intn(2 + (window/period+1)*len(occ))
			want := denseWindowsOK(slots, i, need, window)
			if got := p.VerifyWindows(i, need, window) == nil; got != want {
				t.Fatalf("trial %d: file %d need %d window %d on %v: sparse accepts=%v, dense accepts=%v",
					trial, i, need, window, slots, got, want)
			}
			checked++
			if !want {
				rejected++
			}
		}
	}
	if rejected < checked/5 || rejected > checked*4/5 {
		t.Fatalf("%d of %d window checks rejected: the draw no longer exercises both verdicts", rejected, checked)
	}
}

func TestVerifyWindowsBeyondIndex(t *testing.T) {
	p, err := NewProgram([]FileInfo{{Name: "a", M: 1, N: 1, Demand: 1}}, []int{0, Idle}, 0, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyWindows(0, 1, math.MaxInt32+1); !errors.Is(err, bcerr.ErrBadSpec) {
		t.Fatalf("window past the 32-bit index: err = %v, want ErrBadSpec", err)
	}
	if err := p.VerifyWindows(0, 1, math.MaxInt32); err != nil {
		t.Fatalf("largest indexable window: %v", err)
	}
}
