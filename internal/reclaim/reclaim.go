// Package reclaim plans what a paced station transmits in the slots its
// broadcast program leaves idle. Equation 2 sizes the channel for
// density ≤ 0.7, so a good part of every program is idle by
// construction, and on a time-division channel that is air nobody uses.
// A Table gives it to the files already on the air (AIDA's bandwidth
// allocation, §2.3): more transmissions of a file per period, so any m
// of its N blocks arrive sooner. It never touches a scheduled slot and
// names files only: the station numbers a file's blocks in one rotation
// over all it sends (core.Program.BlockAt on the filled table).
// Reclaimed slots are best effort and never promised.
package reclaim

import (
	"container/heap"
	"slices"

	"pinbcast/internal/core"
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
// of the given bandwidth. It is deterministic and costs
// O((period + idle)·log files).
//
// Idle slots are handed out in batches of Nᵢ, so that a file is sent
// cᵢ+eᵢ ≡ cᵢ (mod Nᵢ) times a period — cᵢ scheduled and eᵢ reclaimed
// slots — and the filled table has the data cycle of the program. Each
// batch goes to the file whose expected retrieval mᵢ·period/(cᵢ+eᵢ) is
// the largest share of its window B·Tᵢ, until no file's batch fits.
// Then each idle slot in turn goes to the file with quota left that is
// most overdue against its new spacing period/(cᵢ+eᵢ), counting
// scheduled transmissions too, so reclaimed blocks land in the
// program's gaps.
func Plan(prog *core.Program, specs []core.FileSpec, bandwidth int) *Table {
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
	for i := range prog.Files {
		if h.pos[i] = -1; window[i] > 0 {
			h.key[i] = inverseShare(i)
			heap.Push(h, i)
		}
	}
	for left := t.Idle; h.Len() > 0; {
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

	// Placement. The heap orders the files with quota left by when
	// their next transmission is due: one spacing after the last.
	spacing := make([]float64, n)
	for i := range prog.Files {
		if extra[i] > 0 {
			spacing[i] = float64(prog.Period) / float64(prog.PerPeriod(i)+extra[i])
			h.key[i] = float64(last[i]-prog.Period) + spacing[i] // last sent in the period before
			heap.Push(h, i)
		}
	}
	for off, f := range prog.Slots {
		if f == core.Idle {
			if h.Len() == 0 {
				continue
			}
			f = h.files[0]
			t.Slots[off] = f
			t.Reclaimed++
			extra[f]--
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
	return t
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
