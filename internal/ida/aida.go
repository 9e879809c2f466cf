package ida

import "fmt"

// Allocation is the AIDA bandwidth-allocation step of Figure 4: after a
// file has been dispersed into N blocks, the server chooses how many of
// them, n ∈ [M, N], are transmitted in each broadcast period. n = M means
// no redundancy; n = N means maximum redundancy; n − M is the number of
// per-period block erasures the transmission tolerates.
type Allocation struct {
	blocks []*Block
	n      int
}

// Allocate selects the first n of the dispersed blocks for transmission.
// Because any M blocks reconstruct the file, which n are chosen is
// immaterial; choosing a prefix keeps block sequence numbers dense.
func Allocate(blocks []*Block, n int) (*Allocation, error) {
	if len(blocks) == 0 {
		return nil, ErrNotEnough
	}
	m := int(blocks[0].M)
	if n < m || n > len(blocks) {
		return nil, fmt.Errorf("ida: allocation n=%d outside [m=%d, N=%d]", n, m, len(blocks))
	}
	return &Allocation{blocks: blocks[:n:n], n: n}, nil
}

// Blocks returns the transmitted blocks.
func (a *Allocation) Blocks() []*Block { return a.blocks }

// N returns the number of transmitted blocks.
func (a *Allocation) N() int { return a.n }

// Redundancy returns the number of tolerated per-period erasures, n − m.
func (a *Allocation) Redundancy() int { return a.n - int(a.blocks[0].M) }

// ScaleForFaults returns the AIDA transmission width for tolerating r
// per-period erasures of a file with reconstruction threshold m: n = m+r.
// It is the quantity the fault-tolerant pinwheel reduction of §3.2
// schedules (task (mᵢ+rᵢ, B·Tᵢ)).
func ScaleForFaults(m, r int) int {
	if m < 1 || r < 0 {
		panic(fmt.Sprintf("ida: invalid ScaleForFaults(m=%d, r=%d)", m, r))
	}
	return m + r
}

// Overhead returns the fractional bandwidth overhead of transmitting n
// blocks of a file reconstructible from m: (n−m)/m.
func Overhead(m, n int) float64 {
	if m < 1 || n < m {
		panic(fmt.Sprintf("ida: invalid Overhead(m=%d, n=%d)", m, n))
	}
	return float64(n-m) / float64(m)
}
