// Package allocprovegood holds hotpath functions the compiler's escape
// analysis agrees are heap-free, plus the two sanctioned ways around
// it: the by-rule exemption for constant panic strings and an explicit
// line waiver for an amortized cold-path allocation.
package allocprovegood

// First returns the head of a non-empty slice. The panic string is a
// constant: it "escapes" formally but is backed by static data, so
// hotpath exempts it by rule.
//
//pinlint:hotpath
func First(xs []byte) byte {
	if len(xs) == 0 {
		panic("allocprovegood: empty slice")
	}
	return xs[0]
}

// Fill overwrites dst in place; nothing escapes.
//
//pinlint:hotpath
func Fill(dst []byte, b byte) {
	for i := range dst {
		dst[i] = b
	}
}

// Grow reuses dst when it can and pays one amortized allocation when it
// cannot — the allocation is real, so it carries a waiver with its
// justification instead of hiding.
//
//pinlint:hotpath
func Grow(dst []byte, n int) []byte {
	if cap(dst) < n {
		dst = make([]byte, n) //pinlint:allow hotpath — amortized refill, callers reuse the grown buffer
	}
	return dst[:n]
}

// report is cold: unannotated functions may allocate freely.
func report(n int) *int {
	return &n
}
