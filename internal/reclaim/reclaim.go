// Package reclaim plans what a paced station transmits in the slots its
// broadcast program leaves idle. Equation 2 sizes the channel for
// density ≤ 0.7, so a good part of every program is idle by
// construction, and on a time-division channel that is air nobody uses.
// A Table gives it to the files already on the air (AIDA's bandwidth
// allocation, §2.3): more transmissions of a file per period, so any m
// of its N blocks arrive sooner. It never touches a scheduled slot and
// names files only: the station numbers a file's blocks in one rotation
// over all it sends (core.Program.BlockAt on the filled table).
// Reclaimed slots are best effort and never promised. Where they go is
// Plan's: placed evenly, then coalesced into bursts where that lowers
// expected latency.
package reclaim

import (
	"container/heap"
	"slices"

	"pinbcast/internal/core"
	"pinbcast/internal/pinwheel"
)

// Table is one program period with its idle offsets filled.
type Table struct {
	// Slots is the file sent at each period offset, the program's own or
	// the one reclaiming it, or core.Idle where the slot stays empty.
	Slots []int
	// Idle is how many slots per period the program leaves idle and
	// Reclaimed how many of them the table fills: all but fewer than the
	// smallest dispersal width among the files that reclaim.
	Idle, Reclaimed int
}

// Plan builds the table of prog, whose files have the latencies of
// specs (matched by name: layouts reorder the file table) on a channel
// of the given bandwidth, in three deterministic steps.
//
// Quotas. Idle slots are handed out in batches of Nᵢ, so that a file is
// sent cᵢ+eᵢ ≡ cᵢ (mod Nᵢ) times a period — cᵢ scheduled and eᵢ
// reclaimed slots — and the filled table has the data cycle of the
// program. Each batch goes to the file whose expected retrieval
// mᵢ·period/(cᵢ+eᵢ) is the largest share of its window B·Tᵢ, until no
// file's batch fits.
//
// Even placement. Each idle slot in turn goes to the file with quota
// left that is most overdue against its new spacing period/(cᵢ+eᵢ),
// counting scheduled transmissions too, so reclaimed blocks land in the
// program's gaps.
//
// Coalescing. A retrieval needs mᵢ blocks, not one: n transmissions a
// period cost a listener (mᵢ−½)·period/n slots on average when spaced
// evenly and about period/(2k) + mᵢ in k = n/mᵢ bursts, towards half as
// mᵢ grows. So up to maxPasses passes exchange pairs of reclaimed slots
// to send a file's blocks back to back (coalescer.try), keeping an
// exchange only if it lowers the sum over the two files of expected
// retrieval ÷ B·Tᵢ as core.Program.LatencyProfile reports it of the
// filled table; the sum falls with every exchange kept, so the passes
// would end uncapped too. They start from the even placement, not from
// bursts, because that is what holds the tail: nothing moves unless it
// pays at the mean. Files are permuted among reclaimed offsets and that
// is all, so the counts per file — whole rotations, the data cycle, Idle
// and Reclaimed — and every scheduled slot, hence every window the
// program keeps, are those of the first two steps. Given up is a file's
// worst start, which may get later while its mean gets earlier; it stays
// within what the scheduled slots alone bound.
//
// The first two steps cost O((period + idle)·log files), a pass 2·idle
// exchanges at O(mᵢ + the transmissions the moved one passes over) each.
func Plan(prog *core.Program, specs []core.FileSpec, bandwidth int) *Table {
	t, c := place(prog, specs, bandwidth)
	for pass := 0; pass < maxPasses && c.pass() > 0; pass++ {
	}
	return t
}

// place makes the first two steps of Plan and readies the third.
func place(prog *core.Program, specs []core.FileSpec, bandwidth int) (*Table, *coalescer) {
	t := &Table{Slots: slices.Clone(prog.Slots)}
	n := len(prog.Files)
	window := make([]float64, n) // B·Tᵢ; 0 for a file no spec names, which reclaims nothing
	for _, f := range specs {
		if i := prog.FileIndex(f.Name); i >= 0 {
			window[i] = float64(bandwidth) * float64(f.Latency)
		}
	}
	last := make([]int, n) // offset of the file's last scheduled slot in a period
	for off, f := range prog.Slots {
		if f == core.Idle {
			t.Idle++
		} else {
			last[f] = off
		}
	}

	// Quotas. The heap orders files by the inverse of the share above.
	h := &byKey{key: make([]float64, n), pos: make([]int, n)}
	extra := make([]int, n)
	inverseShare := func(i int) float64 {
		return float64(prog.PerPeriod(i)+extra[i]) * window[i] / float64(prog.Files[i].M)
	}
	narrowest := t.Idle + 1 // the smallest batch
	for i := range prog.Files {
		if h.pos[i] = -1; window[i] > 0 {
			h.key[i] = inverseShare(i)
			h.Push(i)
			narrowest = min(narrowest, prog.Files[i].N)
		}
	}
	heap.Init(h)
	for left := t.Idle; left >= narrowest; { // the narrowest is still in the heap
		i := h.files[0]
		if width := prog.Files[i].N; width <= left {
			extra[i] += width
			left -= width
			h.key[i] = inverseShare(i)
			heap.Fix(h, 0)
		} else {
			heap.Pop(h) // left only shrinks: it never fits again
		}
	}
	for _, i := range h.files { // none fits: emptied at once, a Pop each costs as much as the placement
		h.pos[i] = -1
	}
	h.files = h.files[:0]

	// Placement. The heap orders the files with quota left by when
	// their next transmission is due: one spacing after the last.
	c := &coalescer{prog: prog, slots: t.Slots, window: window, idle: make([]int32, 0, t.Idle), occ: make([][]int32, n), total: make([]int, n)}
	slab := make([]int32, prog.Period) // the lists of c.occ
	spacing := make([]float64, n)
	for i := range prog.Files {
		if extra[i] > 0 {
			sent := prog.PerPeriod(i) + extra[i]
			spacing[i] = float64(prog.Period) / float64(sent)
			h.key[i] = float64(last[i]-prog.Period) + spacing[i] // last sent in the period before
			heap.Push(h, i)
			c.occ[i], slab = slab[:0:sent], slab[sent:]
		}
	}
	for off, f := range prog.Slots {
		if f == core.Idle {
			c.idle = append(c.idle, int32(off))
			if h.Len() == 0 {
				continue
			}
			f = h.files[0]
			t.Slots[off] = f
			t.Reclaimed++
			extra[f]--
		}
		if spacing[f] > 0 {
			c.occ[f] = append(c.occ[f], int32(off))
		}
		switch {
		case h.pos[f] < 0: // a scheduled slot of a file with no quota left
		case extra[f] == 0:
			heap.Remove(h, h.pos[f])
		default:
			h.key[f] = float64(off) + spacing[f]
			heap.Fix(h, h.pos[f])
		}
	}
	for i, occ := range c.occ {
		if occ != nil {
			c.total[i], _ = pinwheel.Latencies(occ, prog.Period, prog.Files[i].M, 0, len(occ))
		}
	}
	return t, c
}

// maxPasses caps the coalescing passes of one plan, to hold it to a
// tenth of the build it is part of (BenchmarkPlan). On bdserved's two
// programs the first pass keeps three quarters of what uncapped passes
// keep and the second most of the rest.
const maxPasses = 2

// coalescer is the third step of Plan: the filled table, the offsets
// the program leaves idle in period order and, for each file that
// reclaims, its offsets in the table (ascending, kept in step with it)
// and the sum over the start slots of a period of the slots to its
// mᵢ-th transmission from there — share(i) is total[i] ÷ (period ·
// B·Tᵢ), LatencyProfile's mean over the window.
type coalescer struct {
	prog   *core.Program
	slots  []int
	window []float64
	idle   []int32
	occ    [][]int32
	total  []int
	tried  int // exchanges evaluated
}

// pass tries both exchanges of every idle offset and counts the kept.
func (c *coalescer) pass() (kept int) {
	for j := range c.idle {
		for _, dir := range [2]int{1, -1} {
			if c.try(j, dir) {
				kept++
			}
		}
	}
	return kept
}

// try looks at the j-th idle offset a, reclaimed by file x, and at its
// neighbour in idle order on the dir side. Where another file y has
// that, the neighbour and x's nearest further reclaimed offset b on that
// side exchange files — x goes out next to a, y at b — and the exchange
// is kept iff share(x) + share(y) falls. Only files with a quota, hence
// a window, are in idle offsets.
func (c *coalescer) try(j, dir int) bool {
	a, near := c.idle[j], c.idle[(j+dir+len(c.idle))%len(c.idle)]
	x, y := c.slots[a], c.slots[near]
	if x == core.Idle || y == core.Idle || x == y {
		return false
	}
	occ, scheduled := c.occ[x], c.prog.Slots
	k, _ := slices.BinarySearch(occ, a)
	b := a
	for { // ends on a at the latest
		k = (k + dir + len(occ)) % len(occ)
		if b = occ[k]; scheduled[b] == core.Idle {
			break
		}
	}
	if b == a {
		return false
	}
	c.tried++
	qy, _ := slices.BinarySearch(c.occ[y], near)
	dx, px := c.move(x, k, near)
	dy, py := c.move(y, qy, b)
	if float64(dx)/c.window[x]+float64(dy)/c.window[y] >= 0 {
		shift(occ, px, k, b)
		shift(c.occ[y], py, qy, near)
		return false
	}
	c.slots[near], c.slots[b] = x, y
	c.total[x], c.total[y] = c.total[x]+dx, c.total[y]+dy
	return true
}

// move takes file f's transmission at index q of occ[f] to the free
// offset to, index p, and returns what that adds to total[f]. Term k of
// the sum (pinwheel.Latencies over the gap before occurrence k) reads
// three entries of the list — its own, the one before (its gap) and the
// one mᵢ−1 on (where its starts complete) — so the terms that change are
// those reading an index lo…hi between q and p: k = lo−mᵢ+1…hi−mᵢ+1 and
// lo…hi+1, one run where the two meet and the whole list where that
// would lap it.
func (c *coalescer) move(f, q int, to int32) (delta, p int) {
	occ, m, period := c.occ[f], c.prog.Files[f].M, len(c.slots)
	sum := func(lo, n int) int {
		total, _ := pinwheel.Latencies(occ, period, m, lo, n)
		return total
	}
	for p = q; p+1 < len(occ) && occ[p+1] < to; p++ {
	}
	for ; p > 0 && occ[p-1] > to; p-- {
	}
	lo, hi := min(p, q), max(p, q)
	if hi-lo+m+1 >= len(occ) {
		shift(occ, q, p, to)
		return sum(0, len(occ)) - c.total[f], p
	}
	changing := func() int {
		if hi-m+2 >= lo {
			return sum(lo-m+1, hi-lo+m+1)
		}
		return sum(lo-m+1, hi-lo+1) + sum(lo, hi-lo+2)
	}
	delta = -changing()
	shift(occ, q, p, to)
	return delta + changing(), p
}

// shift moves the entry at index q of an ascending list to index p,
// where offset to belongs.
func shift(occ []int32, q, p int, to int32) {
	if p > q {
		copy(occ[q:p], occ[q+1:p+1])
	} else {
		copy(occ[p+1:q+1], occ[p:q])
	}
	occ[p] = to
}

// byKey is a min-heap of file indices ordered by key, ties to the lower
// index, that tracks where each file sits so its key can change in
// place.
type byKey struct {
	key   []float64 // per file
	pos   []int     // per file: its index in files, -1 when absent
	files []int
}

func (h *byKey) Len() int { return len(h.files) }
func (h *byKey) Less(a, b int) bool {
	fa, fb := h.files[a], h.files[b]
	return h.key[fa] < h.key[fb] || h.key[fa] == h.key[fb] && fa < fb
}
func (h *byKey) Swap(a, b int) {
	h.files[a], h.files[b] = h.files[b], h.files[a]
	h.pos[h.files[a]], h.pos[h.files[b]] = a, b
}
func (h *byKey) Push(x any) {
	h.pos[x.(int)] = len(h.files)
	h.files = append(h.files, x.(int))
}
func (h *byKey) Pop() any {
	f := h.files[len(h.files)-1]
	h.files = h.files[:len(h.files)-1]
	h.pos[f] = -1
	return f
}
