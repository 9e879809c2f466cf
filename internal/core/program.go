package core

import (
	"fmt"
	"slices"
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
// pass (pinwheel.IndexSlots) and every query reads it: occ[i] is the
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
	Bandwidth int   // blocks per time unit; 0 when latencies were given in slots
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
	p := &Program{
		Files:     files,
		Period:    len(slots),
		Slots:     slots,
		Bandwidth: bandwidth,
		Origin:    origin,
		byName:    make(map[string]int, len(files)),
	}
	if p.Period == 0 {
		return nil, fmt.Errorf("core: empty program")
	}
	var err error
	if p.occ, p.rank, err = pinwheel.IndexSlots(slots, len(files)); err != nil {
		return nil, fmt.Errorf("core: program of %d files: %w", len(files), err)
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

// gap returns the cyclic distance from the occurrence before the k-th
// of file i to the k-th.
func (p *Program) gap(i, k int) int {
	occ := p.occ[i]
	if k == 0 {
		return int(occ[0]) + p.Period - int(occ[len(occ)-1])
	}
	return int(occ[k] - occ[k-1])
}

// Gaps returns the cyclic distances between consecutive occurrences of
// file i, in occurrence order starting from the first; the last entry
// wraps around the period. Sum of gaps equals the period.
func (p *Program) Gaps(i int) []int {
	gaps := make([]int, len(p.occ[i]))
	for k := range gaps {
		gaps[k] = p.gap(i, (k+1)%len(gaps))
	}
	return gaps
}

// MaxGap returns δ for file i (Lemma 2): the maximum spacing between
// consecutive blocks of the file in the broadcast.
func (p *Program) MaxGap(i int) int { return slices.Max(p.Gaps(i)) }

// DataCycle returns the length in slots of the program data cycle
// (§2.3): the smallest multiple of the period after which every file's
// block rotation re-aligns with its slots. The value is precomputed
// (overflow-checked) by NewProgram.
func (p *Program) DataCycle() int { return p.cycle }

// LatencyProfile reports the mean and worst-case fault-free retrieval
// latency of file i over every start slot: the time until the file's
// reconstruction threshold of M occurrences has passed (AIDA rotation
// makes consecutive occurrences distinct). The profile is periodic, so
// one period of start slots covers the infinite broadcast; every start
// in the gap before occurrence k completes on occurrence k+M−1, so each
// gap's latencies sum in closed form: O(occurrences) in all.
func (p *Program) LatencyProfile(file int) (mean float64, worst int) {
	occ := p.occ[file]
	total := 0
	for k := range occ {
		last := k + p.Files[file].M - 1
		// done is the wait from occurrence k to the completing one.
		done := int(occ[last%len(occ)]) + last/len(occ)*p.Period - int(occ[k])
		gap := p.gap(file, k)
		total += gap*(done+1) + gap*(gap-1)/2
		if done+gap > worst {
			worst = done + gap
		}
	}
	return float64(total) / float64(p.Period), worst
}

// WorstLatency returns the worst case of LatencyProfile: the longest
// fault-free retrieval of the file over every start slot.
func (p *Program) WorstLatency(file int) int {
	_, worst := p.LatencyProfile(file)
	return worst
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
