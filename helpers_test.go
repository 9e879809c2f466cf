package pinbcast

import (
	"errors"
	"io"
	"testing"
)

// Test shorthands for plural spellings the package does not export:
// each is what a caller's loop over the singular option, or over the
// Recording sink, comes to.

func withRequests(reqs ...Request) ReceiverOption {
	return func(c *receiverConfig) error {
		c.requests = append(c.requests, reqs...)
		return nil
	}
}

func withTunerRequests(reqs ...Request) MultiTunerOption {
	return func(c *multiTunerConfig) error {
		c.requests = append(c.requests, reqs...)
		return nil
	}
}

// tunerDone reports whether every request of the tuner has finished.
func tunerDone(mt *MultiTuner) bool {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return len(mt.reqs) == 0
}

// recorded returns a copy of the slots a recording holds, in capture
// order.
func recorded(rec *Recording) []Slot {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]Slot(nil), rec.slots...)
}

// recordN pulls up to n slots from a source into a new recording.
func recordN(src Source, n int) (*Recording, error) {
	rec := &Recording{}
	for i := 0; i < n; i++ {
		slot, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		rec.Send(slot)
	}
	return rec, nil
}

// mustLayout and mustSchedulers resolve registered strategies by name,
// as every production caller does before passing them by value.
func mustLayout(t testing.TB, name string) Layout {
	t.Helper()
	l, err := layouts.named(name)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustSchedulers(t testing.TB, names ...string) []Scheduler {
	t.Helper()
	out := make([]Scheduler, len(names))
	for i, name := range names {
		s, err := schedulers.named(name)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}
