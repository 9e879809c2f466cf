// Package airindex implements broadcast directories — "indexing on
// air". Footnote 3 of Baruah & Bestavros contrasts self-identifying
// blocks with broadcasting a directory (index) each period, citing
// Imielinski, Viswanathan & Badrinath's energy-efficient (1, m)
// indexing: the index is interleaved m times per broadcast period, so
// a client tunes in, listens only until the next index copy, learns
// exactly when its file's blocks will pass, and dozes in between.
//
// The package interleaves an index into an existing broadcast program
// and computes the two classic metrics per query: access latency
// (time until the data is in hand) and tuning time (time spent
// actively listening — the energy cost). More index copies shorten
// tuning at the price of a longer period, the (1, m) tradeoff.
package airindex

import (
	"fmt"

	"pinbcast/internal/core"
)

// SlotKind distinguishes the contents of an indexed-program slot.
type SlotKind int8

// Slot kinds.
const (
	Idle SlotKind = iota
	Data
	Index
)

// Slot is one slot of an indexed broadcast program.
type Slot struct {
	Kind SlotKind
	File int // valid when Kind == Data
}

// Program is a broadcast program with an interleaved (1, m) index.
type Program struct {
	Base     *core.Program
	Copies   int // m: index copies per period
	IndexLen int // slots per index copy
	Period   int
	Slots    []Slot
	// indexStarts are the slots at which index copies begin;
	// isIndexStart is the membership set Query's hot path probes.
	indexStarts  []int
	isIndexStart map[int]bool
}

// EntriesPerSlot is how many directory entries fit in one index slot;
// with a handful of files one or two slots suffice, matching the
// paper-era assumption that the index is small next to the data.
const EntriesPerSlot = 8

// Build interleaves m index copies into the base program, spacing them
// evenly. The index describes one full period, so clients can compute
// every file's next occurrence from any copy.
func Build(base *core.Program, copies int) (*Program, error) {
	if base == nil {
		return nil, fmt.Errorf("airindex: nil base program")
	}
	if copies < 1 {
		return nil, fmt.Errorf("airindex: need at least one index copy, got %d", copies)
	}
	if copies > base.Period {
		return nil, fmt.Errorf("airindex: %d copies exceed base period %d", copies, base.Period)
	}
	indexLen := (len(base.Files) + EntriesPerSlot - 1) / EntriesPerSlot
	p := &Program{
		Base:     base,
		Copies:   copies,
		IndexLen: indexLen,
		Period:   base.Period + copies*indexLen,
	}
	p.Slots = make([]Slot, 0, p.Period)
	// Insert an index copy before every ⌈period/copies⌉-th base slot.
	interval := (base.Period + copies - 1) / copies
	nextIndexAt := 0
	for t := 0; t < base.Period; t++ {
		if t == nextIndexAt && len(p.indexStarts) < copies {
			p.indexStarts = append(p.indexStarts, len(p.Slots))
			for k := 0; k < indexLen; k++ {
				p.Slots = append(p.Slots, Slot{Kind: Index})
			}
			nextIndexAt += interval
		}
		f := base.FileAt(t)
		if f == core.Idle {
			p.Slots = append(p.Slots, Slot{Kind: Idle})
		} else {
			p.Slots = append(p.Slots, Slot{Kind: Data, File: f})
		}
	}
	p.Period = len(p.Slots)
	p.isIndexStart = make(map[int]bool, len(p.indexStarts))
	for _, s := range p.indexStarts {
		p.isIndexStart[s] = true
	}
	return p, nil
}

// Overhead returns the fraction of the indexed period spent on index
// slots.
func (p *Program) Overhead() float64 {
	return float64(p.Copies*p.IndexLen) / float64(p.Period)
}

// At returns the slot at time t of the infinite indexed broadcast.
func (p *Program) At(t int) Slot { return p.Slots[t%p.Period] }

// nextIndex returns the first slot ≥ t at which an index copy begins.
func (p *Program) nextIndex(t int) int {
	for dt := 0; dt <= p.Period; dt++ {
		if p.isIndexStart[(t+dt)%p.Period] {
			return t + dt
		}
	}
	panic("airindex: no index copy found in a full period")
}

// nextOccurrences returns the times ≥ from of the next `count` data
// slots of the file.
func (p *Program) nextOccurrences(file, from, count int) []int {
	var out []int
	for t := from; len(out) < count; t++ {
		s := p.At(t)
		if s.Kind == Data && s.File == file {
			out = append(out, t)
		}
		if t-from > (count+2)*p.Period {
			panic("airindex: file occurrences missing from program")
		}
	}
	return out
}

// Access is the outcome of one indexed query.
type Access struct {
	Latency int // slots from the query until the file is reconstructable
	Tuning  int // slots spent actively listening
}

// Query simulates a client that wants `blocks` distinct blocks of the
// file, arriving at slot t, using the index protocol: listen until the
// next index copy completes, then doze and wake exactly for the file's
// next block slots.
func (p *Program) Query(file, t, blocks int) Access {
	idx := p.nextIndex(t)
	indexDone := idx + p.IndexLen // index fully read
	occ := p.nextOccurrences(file, indexDone, blocks)
	last := occ[len(occ)-1]
	return Access{
		Latency: last - t + 1,
		// Listening: from arrival to the end of the index copy (the
		// client cannot doze before it knows the schedule), then one
		// slot per block.
		Tuning: (indexDone - idx) + blocks + min(idx-t, 1),
	}
}

// QueryUnindexed simulates the self-identifying-blocks client of the
// paper: it listens continuously from t until its blocks have passed.
func (p *Program) QueryUnindexed(file, t, blocks int) Access {
	occ := p.nextOccurrences(file, t, blocks)
	last := occ[len(occ)-1]
	d := last - t + 1
	return Access{Latency: d, Tuning: d}
}

// Sweep evaluates mean latency and tuning over every arrival slot of
// one period, for a file needing `blocks` blocks.
func (p *Program) Sweep(file, blocks int) (meanLatency, meanTuning float64) {
	totalL, totalT := 0, 0
	for t := 0; t < p.Period; t++ {
		a := p.Query(file, t, blocks)
		totalL += a.Latency
		totalT += a.Tuning
	}
	return float64(totalL) / float64(p.Period), float64(totalT) / float64(p.Period)
}

// SweepUnindexed is Sweep for the continuous-listening client.
func (p *Program) SweepUnindexed(file, blocks int) (meanLatency, meanTuning float64) {
	totalL, totalT := 0, 0
	for t := 0; t < p.Period; t++ {
		a := p.QueryUnindexed(file, t, blocks)
		totalL += a.Latency
		totalT += a.Tuning
	}
	return float64(totalL) / float64(p.Period), float64(totalT) / float64(p.Period)
}
