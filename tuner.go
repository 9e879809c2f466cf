package pinbcast

import (
	"fmt"

	"pinbcast/internal/airindex"
)

// Tuner analyzes (1, m) air indexing for a broadcast program — the
// alternative to self-identifying blocks that footnote 3 of the paper
// contrasts, citing Imielinski, Viswanathan & Badrinath. The index (a
// directory of when each file's blocks pass) is interleaved m times
// per broadcast period; a client tunes in, listens only until the next
// index copy, then dozes and wakes exactly for its file's slots. More
// copies shorten tuning time (the energy cost) at the price of a
// longer period (the latency cost); a Tuner measures both sides of
// that tradeoff for every arrival slot.
type Tuner struct {
	prog *Program
	ip   *airindex.Program
	idx  map[string]int // file name → program file index
}

// TuneReport carries the two classic air-indexing metrics for one
// query: access latency (slots until the data is in hand) and tuning
// time (slots spent actively listening).
type TuneReport = airindex.Access

// NewTuner interleaves `copies` index copies into the program ((1, m)
// indexing with m = copies) and returns the analyzer.
func NewTuner(prog *Program, copies int) (*Tuner, error) {
	if prog == nil {
		return nil, fmt.Errorf("pinbcast: nil program: %w", ErrBadSpec)
	}
	ip, err := airindex.Build(prog, copies)
	if err != nil {
		return nil, fmt.Errorf("pinbcast: %w: %w", ErrBadSpec, err)
	}
	t := &Tuner{prog: prog, ip: ip, idx: make(map[string]int, len(prog.Files))}
	for i, f := range prog.Files {
		t.idx[f.Name] = i
	}
	return t, nil
}

// Copies returns m, the number of index copies per period.
func (t *Tuner) Copies() int { return t.ip.Copies }

// Period returns the indexed period (base period plus index slots).
func (t *Tuner) Period() int { return t.ip.Period }

// Overhead returns the fraction of the indexed period spent on index
// slots — the bandwidth cost of the directory.
func (t *Tuner) Overhead() float64 { return t.ip.Overhead() }

// file resolves a name to a program file index and its reconstruction
// threshold; blocks == 0 selects the file's own M.
func (t *Tuner) file(name string, blocks int) (int, int, error) {
	i, ok := t.idx[name]
	if !ok {
		return 0, 0, fmt.Errorf("pinbcast: file %q not in program: %w", name, ErrBadSpec)
	}
	if blocks == 0 {
		blocks = t.prog.Files[i].M
	}
	if blocks < 1 {
		return 0, 0, fmt.Errorf("pinbcast: need at least one block: %w", ErrBadSpec)
	}
	return i, blocks, nil
}

// Query simulates an indexed client arriving at slot `at` that needs
// `blocks` distinct blocks of the file (0 selects the file's
// reconstruction threshold M): it listens until the next index copy
// completes, then dozes and wakes exactly for the file's block slots.
func (t *Tuner) Query(file string, at, blocks int) (TuneReport, error) {
	i, need, err := t.file(file, blocks)
	if err != nil {
		return TuneReport{}, err
	}
	return t.ip.Query(i, at, need), nil
}

// Sweep averages Query over every arrival slot of one indexed period
// and returns mean access latency and mean tuning time.
func (t *Tuner) Sweep(file string, blocks int) (meanLatency, meanTuning float64, err error) {
	i, need, err := t.file(file, blocks)
	if err != nil {
		return 0, 0, err
	}
	l, tt := t.ip.Sweep(i, need)
	return l, tt, nil
}

// SweepContinuous is Sweep for the continuous-listening baseline.
func (t *Tuner) SweepContinuous(file string, blocks int) (meanLatency, meanTuning float64, err error) {
	i, need, err := t.file(file, blocks)
	if err != nil {
		return 0, 0, err
	}
	l, tt := t.ip.SweepUnindexed(i, need)
	return l, tt, nil
}
