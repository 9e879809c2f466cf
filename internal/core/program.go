package core

import (
	"fmt"
	"strings"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/pinwheel"
	"pinbcast/internal/slotmath"
)

// Idle marks an unallocated program slot.
const Idle = pinwheel.Idle

// FileInfo records the per-file parameters a program was built for.
type FileInfo struct {
	Name   string
	M      int // blocks needed to reconstruct
	N      int // dispersal width the server rotates through
	Demand int // block slots guaranteed per latency window (m+r)
}

// Program is a cyclic broadcast program (Definition 1 of §4.1): slot t
// of the infinite broadcast transmits a block of file Slots[t mod Period]
// (or nothing, for Idle). Which block of the file is transmitted follows
// AIDA rotation: the k-th transmission of file i overall carries
// dispersed block k mod Nᵢ, producing the program data cycle of §2.3.
//
// NewProgram builds one sparse occurrence index in a single O(Period)
// pass (pinwheel.IndexSlots; a pinwheel build adopts the one its
// schedule's Verify built) and every query reads it: occ[i] is the
// ascending list of file i's slot offsets within one period — all lists
// are sub-slices of one []int32 slab — and rank[t] is slot t's position
// in its file's list, so BlockAt is two loads and window verification,
// gaps and latency profiles cost O(len(occ[i])) per file. The index
// takes 8 bytes per slot plus a slice header and a name-table entry per
// file: O(Period + files) memory, whatever the file count.
type Program struct {
	Files     []FileInfo
	Period    int
	Slots     []int // file index per slot, or Idle
	Bandwidth int   // blocks per time unit the windows were built at; 0 for a layout that bounds none
	Origin    string

	occ    [][]int32
	rank   []int32
	byName map[string]int // first file of each name
	// cycle is the precomputed data-cycle length in slots
	// (overflow-checked at construction, so DataCycle stays a plain
	// accessor).
	cycle int
}

// NewProgram assembles a program and precomputes its occurrence index.
func NewProgram(files []FileInfo, slots []int, bandwidth int, origin string) (*Program, error) {
	occ, rank, err := pinwheel.IndexSlots(slots, len(files))
	if err != nil {
		return nil, fmt.Errorf("core: program of %d files: %w", len(files), err)
	}
	return indexedProgram(files, slots, occ, rank, bandwidth, origin)
}

// indexedProgram assembles a program around an occurrence index already
// built for its slots (pinwheel.IndexSlots over len(files) entries).
func indexedProgram(files []FileInfo, slots []int, occ [][]int32, rank []int32, bandwidth int, origin string) (*Program, error) {
	p := &Program{
		Files:     files,
		Period:    len(slots),
		Slots:     slots,
		Bandwidth: bandwidth,
		Origin:    origin,
		occ:       occ,
		rank:      rank,
		byName:    make(map[string]int, len(files)),
	}
	if p.Period == 0 {
		return nil, fmt.Errorf("core: empty program")
	}
	for i := len(files) - 1; i >= 0; i-- { // descending: the first of equal names wins
		if len(p.occ[i]) == 0 {
			return nil, fmt.Errorf("core: file %q never scheduled", files[i].Name)
		}
		p.byName[files[i].Name] = i
	}
	// Precompute the data cycle (§2.3): the smallest multiple of the
	// period after which every file's AIDA block rotation re-aligns
	// with its slots. File i repeats after N/gcd(c, N) periods, so the
	// cycle is the lcm over files — which adversarial specifications
	// (large coprime dispersal widths) can push past the int range.
	cycle := 1
	var err error
	for i := range files {
		c, n := len(p.occ[i]), p.Files[i].N
		rep := n / slotmath.GCD(c, n)
		if cycle, err = slotmath.LCM(cycle, rep); err != nil {
			return nil, fmt.Errorf("core: data cycle of %d files overflows: %w", len(files), bcerr.ErrBadSpec)
		}
	}
	if p.cycle, err = slotmath.Mul(cycle, p.Period); err != nil {
		return nil, fmt.Errorf("core: data cycle %d × period %d overflows: %w", cycle, p.Period, bcerr.ErrBadSpec)
	}
	return p, nil
}

// PerPeriod returns how many slots per period carry file i.
func (p *Program) PerPeriod(i int) int { return len(p.occ[i]) }

// FileIndex returns the file-table index of the named file, or -1 when
// the program does not carry it. Layouts may order the file table
// differently from the specification they were given (tiering groups
// files by frequency), so callers holding names should resolve indices
// through this method rather than assuming specification order.
func (p *Program) FileIndex(name string) int {
	if i, ok := p.byName[name]; ok {
		return i
	}
	return -1
}

// FileAt returns the file index broadcast in slot t of the infinite
// program, or Idle. It sits on the per-slot serve and doze paths.
//
//pinlint:hotpath
func (p *Program) FileAt(t int) int { return p.Slots[t%p.Period] }

// BlockAt returns the file index and dispersed block sequence number
// transmitted in slot t (AIDA rotation), or (Idle, 0) for an idle slot.
//
//pinlint:hotpath
func (p *Program) BlockAt(t int) (file, seq int) {
	off := t % p.Period
	f := p.Slots[off]
	if f == Idle {
		return Idle, 0
	}
	// Occurrences in the full periods before t, then earlier in this one.
	k := (t/p.Period)*len(p.occ[f]) + int(p.rank[off])
	return f, k % p.Files[f].N
}

// Occurrences returns the slot offsets of file i within one period.
func (p *Program) Occurrences(i int) []int {
	out := make([]int, len(p.occ[i]))
	for k, t := range p.occ[i] {
		out[k] = int(t)
	}
	return out
}

// MaxGap returns δ for file i (Lemma 2): the maximum spacing between
// consecutive blocks of the file in the broadcast.
func (p *Program) MaxGap(i int) int {
	_, worst := pinwheel.Latencies(p.occ[i], p.Period, 1, 0, len(p.occ[i]))
	return worst
}

// DataCycle returns the length in slots of the program data cycle
// (§2.3): the smallest multiple of the period after which every file's
// block rotation re-aligns with its slots. The value is precomputed
// (overflow-checked) by NewProgram.
//
//pinlint:hotpath
func (p *Program) DataCycle() int { return p.cycle }

// LatencyProfile reports the mean and worst-case fault-free retrieval
// latency of file i over every start slot: the time until the file's
// reconstruction threshold of M occurrences has passed (AIDA rotation
// makes consecutive occurrences distinct). The profile is periodic, so
// one period of start slots covers the infinite broadcast: O(occurrences)
// in all, read off the occurrence index by pinwheel.Latencies.
func (p *Program) LatencyProfile(file int) (mean float64, worst int) {
	occ := p.occ[file]
	total, worst := pinwheel.Latencies(occ, p.Period, p.Files[file].M, 0, len(occ))
	return float64(total) / float64(p.Period), worst
}

// WorstLatency returns the longest retrieval of the file over every
// start slot while an adversary destroys f of its receptions: a start
// completes f occurrences after its fault-free one, any M+f consecutive
// occurrences carrying distinct numbers. It refuses f outside 0…N−M.
func (p *Program) WorstLatency(file, f int) (int, error) {
	if err := p.tolerates(file, f); err != nil {
		return 0, err
	}
	occ := p.occ[file]
	_, worst := pinwheel.Latencies(occ, p.Period, p.Files[file].M+f, 0, len(occ))
	return worst, nil
}

// tolerates refuses r faults outside 0…N−M: past N−M, M+r consecutive
// receptions repeat numbers and the closed form no longer holds.
func (p *Program) tolerates(file, r int) error {
	if info := p.Files[file]; r < 0 || info.M+r > info.N {
		return fmt.Errorf("core: file %q tolerates 0 to %d errors (N=%d, M=%d), got %d",
			info.Name, info.N-info.M, info.N, info.M, r)
	}
	return nil
}

// WeightedMeanLatency returns the access-probability-weighted mean
// retrieval latency over all files — the objective the multi-disk
// layout optimizes (and the pinwheel construction deliberately does
// not). probs must have one entry per file and sum to 1.
func (p *Program) WeightedMeanLatency(probs []float64) float64 {
	total := 0.0
	for i := range p.Files {
		mean, _ := p.LatencyProfile(i)
		total += probs[i] * mean
	}
	return total
}

// VerifyWindows checks that the file receives at least `need`
// occurrences in every cyclic window of `window` slots. It is the
// broadcast-side analogue of pinwheel verification and is used to
// validate constructed programs against their specifications. The
// window the error names is one witness of the violation, not
// necessarily the first (see pinwheel.CheckWindows).
func (p *Program) VerifyWindows(file, need, window int) error {
	if err := pinwheel.CheckWindows(p.occ[file], p.Period, need, window); err != nil {
		return fmt.Errorf("core: file %q: %w", p.Files[file].Name, err)
	}
	return nil
}

// String renders one period of the program like the paper's figures,
// e.g. "A1 A2 B1 A3 B2 A4 B3 A5" (sequence numbers are 1-based).
func (p *Program) String() string { return p.render(p.Period, "") }

// RenderCycle renders the given number of slots of the infinite
// program, exposing the data-cycle rotation of Figure 6.
func (p *Program) RenderCycle(slots int) string { return p.render(slots, "'") }

func (p *Program) render(slots int, mark string) string {
	parts := make([]string, 0, slots)
	for t := 0; t < slots; t++ {
		f, seq := p.BlockAt(t)
		if f == Idle {
			parts = append(parts, "⊔")
			continue
		}
		name := p.Files[f].Name
		if name == "" {
			name = fmt.Sprintf("F%d", f)
		}
		parts = append(parts, fmt.Sprintf("%s%d%s", name, seq+1, mark))
	}
	return strings.Join(parts, " ")
}
