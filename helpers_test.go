package pinbcast

import (
	"io"
	"runtime"
	"sync/atomic"
)

// Test shorthands for plural spellings the package does not export:
// each is what a caller's loop over the singular option, or over the
// Recording sink, comes to.

func withRequests(reqs ...Request) ListenerOption {
	return func(c *receiverConfig) error {
		c.requests = append(c.requests, reqs...)
		return nil
	}
}

// vectorFile is the §4 file bc(name, m, d⃗): at bandwidth 1 its
// latencies count slots.
func vectorFile(name string, m int, d ...int) FileSpec {
	f := FileSpec{Name: name, Blocks: m, Faults: len(d) - 1, Latencies: d}
	if len(d) > 0 {
		f.Latency = d[len(d)-1]
	}
	return f
}

// buildVectors builds §4 files at bandwidth 1 with the portfolio.
func buildVectors(files []FileSpec) (*Program, error) {
	return Build(BuildConfig{Files: files, Bandwidth: 1})
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

// LoopReplay replays recorded slots round and round, numbering them on
// from slot Pos until slot End (0: never) — a live channel that keeps
// the numbers of a recording made from slot 0, lap after lap. It never
// blocks, so it yields every 64 slots the way a read would. Close may
// run while a reader is inside Next.
type LoopReplay struct {
	Slots    []Slot
	Pos, End int
	closed   atomic.Bool
}

func (l *LoopReplay) Next() (Slot, error) {
	if l.closed.Load() || len(l.Slots) == 0 || l.End > 0 && l.Pos >= l.End {
		return Slot{}, io.EOF
	}
	s := l.Slots[l.Pos%len(l.Slots)]
	s.T = l.Pos
	if l.Pos++; l.Pos%64 == 0 {
		runtime.Gosched()
	}
	return s, nil
}

func (l *LoopReplay) Close() error {
	l.closed.Store(true)
	return nil
}
