package pinwheel

import (
	"errors"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"

	"pinbcast/internal/bcerr"
)

// denseWindowsOK is the checker Schedule.Verify and
// core.Program.VerifyWindows used before the sparse index: a prefix
// table of the entry's grants over one period, then one count per start
// slot. It stays here as the reference the sparse form is held to.
func denseWindowsOK(slots []int, entry, need, window int) bool {
	p := len(slots)
	prefix := make([]int, p+1)
	for t, v := range slots {
		prefix[t+1] = prefix[t]
		if v == entry {
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

// witness reads the task and the window's first slot off a Verify error.
var witness = regexp.MustCompile(`task (\d+) .* window at slot (\d+)$`)

// denseCount counts the entry's grants in the cyclic window of `window`
// slots opening at start.
func denseCount(slots []int, entry, start, window int) int {
	n := 0
	for t := start; t < start+window; t++ {
		if slots[t%len(slots)] == entry {
			n++
		}
	}
	return n
}

// randomSlots draws one period over n entries with idle slots mixed in;
// one draw in four is mostly idle, so single-grant and never-granted
// entries turn up.
func randomSlots(rng *rand.Rand, n int) []int {
	slots := make([]int, 1+rng.Intn(24))
	idle := rng.Intn(4) == 0
	for t := range slots {
		slots[t] = rng.Intn(n+1) - 1 // Idle is −1
		if idle && rng.Intn(3) > 0 {
			slots[t] = Idle
		}
	}
	return slots
}

// randomWindow draws a window against a period: shorter, longer, and a
// whole number of periods.
func randomWindow(rng *rand.Rand, period int) int {
	switch rng.Intn(4) {
	case 0:
		return period * (1 + rng.Intn(3))
	case 1:
		return period + 1 + rng.Intn(2*period)
	default:
		return 1 + rng.Intn(period)
	}
}

func TestVerifyMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rejected := 0
	for trial := 0; trial < 25000; trial++ {
		n := 1 + rng.Intn(4)
		sch := NewSchedule(randomSlots(rng, n), "random")
		sys := make(System, n)
		want := true
		for i := range sys {
			b := randomWindow(rng, sch.Period)
			// Around what the grants can supply, so both verdicts occur;
			// beyond it too, to reach past the list.
			a := rng.Intn(2 + (b/sch.Period+1)*sch.GrantCount(i))
			sys[i] = Task{A: a, B: b}
			want = want && denseWindowsOK(sch.Slots, i, a, b)
		}
		err := sch.Verify(sys)
		if got := err == nil; got != want {
			t.Fatalf("trial %d: slots %v system %v: sparse accepts=%v, dense accepts=%v",
				trial, sch.Slots, sys, got, want)
		}
		if !want {
			rejected++
			// The named window must be a witness.
			m := witness.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("trial %d: %v names no task and window", trial, err)
			}
			i, _ := strconv.Atoi(m[1])
			start, _ := strconv.Atoi(m[2])
			if got := denseCount(sch.Slots, i, start, sys[i].B); got >= sys[i].A {
				t.Fatalf("trial %d: slots %v system %v: %v, but that window holds %d", trial, sch.Slots, sys, err, got)
			}
		}
		for i := range sys {
			gap := 0 // the longest wait after a grant for the next
			for t, v := range sch.Slots {
				if v == i {
					d := 1
					for sch.Slots[(t+d)%sch.Period] != i {
						d++
					}
					gap = max(gap, d)
				}
			}
			if got := sch.MaxGap(i); got != gap {
				t.Fatalf("trial %d: slots %v: MaxGap(%d) = %d, dense gaps give %d", trial, sch.Slots, i, got, gap)
			}
		}
	}
	if rejected < 5000 || rejected > 20000 {
		t.Fatalf("%d of 25000 systems rejected: the draw no longer exercises both verdicts", rejected)
	}
}

func TestCheckWindowsEdges(t *testing.T) {
	// Never granted with a positive demand.
	if err := CheckWindows(nil, 4, 1, 4); err == nil {
		t.Error("an entry with no occurrence passed need 1")
	}
	if err := CheckWindows(nil, 4, 0, 4); err != nil {
		t.Errorf("need 0: %v", err)
	}
	// Two occurrences per period of 4; a window of 9 spans two periods
	// and one slot. need 7 leaves 3 for that slot: more than one period
	// holds, so the check must fail.
	occ := []int32{0, 2}
	if err := CheckWindows(occ, 4, 7, 9); err == nil {
		t.Error("need − ⌊W/P⌋·c > c passed")
	}
	if err := CheckWindows(occ, 4, 4, 9); err != nil {
		t.Errorf("two whole periods supply 4: %v", err)
	}
	for _, err := range []error{
		CheckWindows(occ, 4, 1, math.MaxInt32+1),
		CheckWindows(occ, 0, 1, 4),
	} {
		if !errors.Is(err, bcerr.ErrBadSpec) {
			t.Errorf("err = %v, want ErrBadSpec", err)
		}
	}
}
