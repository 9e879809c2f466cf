package pinbcast

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// The pacing tests run on injected time: the pure pacer takes its
// clock reading as an argument, and the Serve-level test substitutes
// Station.clock. Nothing here sleeps.

const pacerTestInterval = time.Millisecond

var pacerTestEpoch = time.Unix(1_000_000, 0)

// pacerRun drives a pacer through a sequence of wake-ups: before
// asking for slot k the loop is held up by delays[k] (on top of
// whatever the pacer made it wait), the way a late timer, a GC pause
// or a blocked send would. It checks the invariants every slot must
// meet — never released before its due time, due times on the
// epoch + (k+1)·interval grid re-anchored only by a resync — and
// returns the per-slot waits, latenesses and resync flags.
func pacerRun(t *testing.T, delays []time.Duration) (waits, lates []time.Duration, resyncs []bool) {
	t.Helper()
	now := pacerTestEpoch
	p := pacer{interval: pacerTestInterval, due: now.Add(pacerTestInterval)}
	due := p.due // the test's own copy of the grid
	for k, d := range delays {
		now = now.Add(d)
		wait, late, resynced := p.next(now)
		if wait < 0 || late < 0 || (wait > 0 && late > 0) {
			t.Fatalf("slot %d: wait %v and lateness %v", k, wait, late)
		}
		released := now.Add(wait)
		if released.Before(due) {
			t.Fatalf("slot %d released %v before its due time", k, due.Sub(released))
		}
		if got := released.Sub(due); got != late {
			t.Fatalf("slot %d: lateness %v, released %v past due", k, late, got)
		}
		if resynced {
			due = now
		}
		due = due.Add(pacerTestInterval)
		if !p.due.Equal(due) {
			t.Fatalf("slot %d: next due time off the grid by %v", k, p.due.Sub(due))
		}
		now = released
		waits, lates, resyncs = append(waits, wait), append(lates, late), append(resyncs, resynced)
	}
	return waits, lates, resyncs
}

func TestPacer(t *testing.T) {
	const iv = pacerTestInterval
	tests := []struct {
		name      string
		hold      time.Duration // how long the loop is held up before slot 3
		backlog   int           // slots then emitted with no wait, slot 3 included
		nextWait  time.Duration // wait of the first slot after the backlog
		wantSyncs int
	}{
		{"on time", 0, 0, iv, 0},
		{"late by under one interval", iv + iv*3/10, 1, iv * 7 / 10, 0},
		{"late by 3.5 intervals", iv + iv*7/2, 4, iv / 2, 0},
		{"late by bound-1 intervals", iv + (pacerMaxBehind-1)*iv, pacerMaxBehind, iv, 0},
		{"late by exactly the bound", iv + pacerMaxBehind*iv, pacerMaxBehind + 1, iv, 0},
		{"late beyond the bound", iv + pacerMaxBehind*iv + 1, 1, iv, 1},
		{"stalled for 10x the bound", 10 * pacerMaxBehind * iv, 1, iv, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			delays := make([]time.Duration, 3+2*pacerMaxBehind)
			delays[3] = tc.hold
			waits, lates, resyncs := pacerRun(t, delays)
			for k := 0; k < 3; k++ {
				if waits[k] != iv || lates[k] != 0 {
					t.Fatalf("on-time slot %d: wait %v lateness %v, want exactly %v and 0", k, waits[k], lates[k], iv)
				}
			}
			k := 3
			for ; k < len(waits) && waits[k] == 0; k++ {
			}
			if got := k - 3; got != tc.backlog {
				t.Fatalf("%d slots emitted without a wait, want %d", got, tc.backlog)
			}
			if waits[k] != tc.nextWait {
				t.Fatalf("first wait after the backlog %v, want %v", waits[k], tc.nextWait)
			}
			for k++; k < len(waits); k++ {
				if waits[k] != iv || lates[k] != 0 {
					t.Fatalf("slot %d after catching up: wait %v lateness %v, want the nominal pace", k, waits[k], lates[k])
				}
			}
			syncs := 0
			for k, r := range resyncs {
				if r {
					syncs++
					if k != 3 {
						t.Fatalf("resync at slot %d, want slot 3", k)
					}
				}
			}
			if syncs != tc.wantSyncs {
				t.Fatalf("%d resyncs, want %d", syncs, tc.wantSyncs)
			}
		})
	}
}

// TestPacerNoDrift: under a million jittered wake-ups, some several
// intervals late, the schedule never leaves the original grid —
// pacerRun checks slot k's due time to the nanosecond on every slot —
// and never resyncs.
func TestPacerNoDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	delays := make([]time.Duration, 1_000_000)
	for k := range delays {
		switch r := rng.Intn(100); {
		case r < 90: // ordinary timer overshoot
			delays[k] = time.Duration(rng.Int63n(int64(pacerTestInterval / 4)))
		case r < 99: // a late wake-up of up to two intervals
			delays[k] = time.Duration(rng.Int63n(int64(2 * pacerTestInterval)))
		default: // a pause of up to a quarter of the bound
			delays[k] = time.Duration(rng.Int63n(int64(pacerMaxBehind / 4 * pacerTestInterval)))
		}
	}
	_, _, resyncs := pacerRun(t, delays)
	for k, r := range resyncs {
		if r {
			t.Fatalf("resync at slot %d under jitter inside the bound", k)
		}
	}
}

// stepClock is the injected Station.clock: time moves only when the
// test says so. SleepUntil hands its deadline to the test over an
// unbuffered channel and blocks until the test takes it, so the test
// single-steps the serve loop and sees every wait it asks for.
type stepClock struct {
	now   time.Time // the test's to move once it holds the loop's latest deadline
	slept chan time.Time
}

func (c *stepClock) Now() time.Time { return c.now }

func (c *stepClock) SleepUntil(ctx context.Context, due time.Time) (time.Duration, bool) {
	c.now = due
	select {
	case <-ctx.Done():
		return 0, false
	case c.slept <- due:
		return 0, true
	}
}

// TestStationServePacerConsumerStall: a consumer stops reading a paced
// Serve stream for ten times the catch-up bound, then resumes. It must
// see every slot (T contiguous), one resync and no burst — the first
// slot after the stall leaves at once, every later one exactly one
// interval after its predecessor — and the stall in the lateness
// histogram.
func TestStationServePacerConsumerStall(t *testing.T) {
	const iv = pacerTestInterval
	st, _ := lifecycleStation(t, WithSlotInterval(iv))
	clk := &stepClock{now: pacerTestEpoch, slept: make(chan time.Time)}
	st.clock = clk
	syncs, lateCount, lateSum := stResyncs.Value(), stLateness.Count(), stLateness.Sum()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	next := 0 // the slot the consumer expects
	recv := func() {
		t.Helper()
		select {
		case slot := <-slots:
			if slot.T != next {
				t.Fatalf("got slot %d, want %d", slot.T, next)
			}
			next++
		case due := <-clk.slept:
			t.Fatalf("slot %d waited until %v, want no wait", next, due)
		}
	}
	due := pacerTestEpoch
	awaitDue := func() {
		t.Helper()
		due = due.Add(iv)
		if got := <-clk.slept; !got.Equal(due) {
			t.Fatalf("slot %d waited until %v past its due time", next, got.Sub(due))
		}
	}

	for next < 5 {
		awaitDue()
		recv()
	}
	// Slot 5 has had its wait and is parked in the channel send: the
	// consumer stalls here.
	awaitDue()
	const stall = 10 * pacerMaxBehind * iv
	due = clk.now.Add(stall) // the schedule's new anchor
	clk.now = due
	recv() // slot 5, already paced
	recv() // slot 6: the resync, emitted at once
	for next < 7+2*pacerMaxBehind {
		awaitDue()
		recv()
	}
	cancel()
	for range slots {
	}

	if got := stResyncs.Value() - syncs; got != 1 {
		t.Errorf("%d resyncs, want 1", got)
	}
	if got := stLateness.Count() - lateCount; got < uint64(next) {
		t.Errorf("lateness observed for %d slots, %d aired", got, next)
	}
	// Slot 6 was due one interval after slot 5 and left a stall later.
	if got, want := stLateness.Sum()-lateSum, uint64((stall - iv).Microseconds()); got != want {
		t.Errorf("lateness sum %d µs, want %d µs", got, want)
	}
}

// TestStationServeCountsSlotsOnAir: pin_station_slots_total counts a
// slot when the consumer has it, not when the loop prepared it — the
// slot a cancelled Serve was still holding is not counted.
func TestStationServeCountsSlotsOnAir(t *testing.T) {
	st, _ := lifecycleStation(t)
	before := stSlots.Value()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	received := uint64(0)
	for range slots {
		if received++; received == 10 {
			cancel()
		}
	}
	if got := stSlots.Value() - before; got != received {
		t.Fatalf("pin_station_slots_total advanced by %d, consumer received %d", got, received)
	}
}
