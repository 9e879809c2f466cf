package ida

import "fmt"

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
