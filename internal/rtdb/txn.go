package rtdb

import (
	"fmt"
	"slices"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
	"pinbcast/internal/pinwheel"
)

// Read-only client transactions over broadcast data (§1: the paper's
// motivating clients are transactions that must complete data
// retrieval before a deadline). A transaction reads a set of items; a
// broadcast client collects all of them concurrently, so the
// transaction's retrieval time is the slowest member's. Because the
// pinwheel construction bounds every file's worst case by its window,
// a transaction's deadline can be *guaranteed* at admission time: the
// largest window among its read set must fit in the deadline.

// Txn is a read-only transaction with a firm deadline in slots.
type Txn struct {
	Name     string
	Reads    []string
	Deadline int
}

// Validate checks the transaction.
func (x Txn) Validate() error {
	if x.Name == "" {
		return fmt.Errorf("rtdb: transaction needs a name: %w", bcerr.ErrBadSpec)
	}
	if len(x.Reads) == 0 {
		return fmt.Errorf("rtdb: transaction %q reads nothing: %w", x.Name, bcerr.ErrBadSpec)
	}
	if x.Deadline < 1 {
		return fmt.Errorf("rtdb: transaction %q has deadline %d: %w", x.Name, x.Deadline, bcerr.ErrBadSpec)
	}
	return nil
}

// GuaranteeTxn decides at admission time whether the transaction's
// deadline is guaranteed by construction: every read item's pinwheel
// window (B·Tᵢ, the worst-case fault-tolerant retrieval bound) must be
// at most the deadline. It returns the binding worst-case bound.
func GuaranteeTxn(files []core.FileSpec, bandwidth int, x Txn) (bool, int, error) {
	if err := x.Validate(); err != nil {
		return false, 0, err
	}
	worst := 0
	for _, name := range x.Reads {
		i := slices.IndexFunc(files, func(f core.FileSpec) bool { return f.Name == name })
		if i < 0 {
			return false, 0, fmt.Errorf("rtdb: transaction %q reads unknown item %q: %w",
				x.Name, name, bcerr.ErrBadSpec)
		}
		if w := bandwidth * files[i].Latency; w > worst {
			worst = w
		}
	}
	return worst <= x.Deadline, worst, nil
}

// maxOverReads validates the transaction and returns the largest
// latency over its read files; a concurrent client's retrieval time is
// its slowest member's.
func maxOverReads(p *core.Program, x Txn, latency func(file int) (int, error)) (int, error) {
	if err := x.Validate(); err != nil {
		return 0, err
	}
	worst := 0
	for _, name := range x.Reads {
		file := p.FileIndex(name)
		if file < 0 {
			return 0, fmt.Errorf("rtdb: item %q not on the broadcast disk: %w", name, bcerr.ErrBadSpec)
		}
		lat, err := latency(file)
		if err != nil {
			return 0, err
		}
		worst = max(worst, lat)
	}
	return worst, nil
}

// TxnLatency returns the fault-free retrieval time of the transaction
// when the client starts listening at the given slot: the time until
// every read item's reconstruction threshold of blocks has passed. A
// listener catches the first occurrence at or after start and needs
// M−1 more, as one who starts just after that occurrence does.
func TxnLatency(p *core.Program, x Txn, start int) (int, error) {
	return maxOverReads(p, x, func(file int) (int, error) {
		occ, off := p.Occurrences(file), start%p.Period
		k, _ := slices.BinarySearch(occ, off) // len(occ): the next period's first
		_, rest := pinwheel.Latencies(occ, p.Period, p.Files[file].M-1, k+1, 1)
		return k/len(occ)*p.Period + occ[k%len(occ)] - off + 1 + rest, nil
	})
}

// TxnWorstLatency maximizes retrieval time over every start slot of one
// period while each read loses the rᵢ = Demand − M receptions an
// adversary picks. The slowest read decides the transaction from any
// start, so this is the largest of the reads' own worst cases.
func TxnWorstLatency(p *core.Program, x Txn) (int, error) {
	return maxOverReads(p, x, func(file int) (int, error) {
		return p.WorstLatency(file, p.Files[file].Demand-p.Files[file].M)
	})
}

// MaxStaleness bounds the age of item data a client holds right after
// retrieving it, when the server refreshes the item every `refresh`
// slots: the copy captured on the air may already be up to `refresh`
// old when its last block leaves the server, plus the retrieval time
// itself. With the pinwheel window W = B·T as retrieval bound, the
// absolute temporal-consistency constraint of §1 is met whenever
// refresh + W stays within the item's constraint.
func MaxStaleness(windowSlots, refreshSlots int) int {
	return windowSlots + refreshSlots
}
