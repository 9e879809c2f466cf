// Package allocprovebad exercises hotpath's compiler half: the escape
// analysis contradicting //pinlint:hotpath claims.
package allocprovebad

var sink any

// Leak returns the address of a local, the canonical escape.
//
//pinlint:hotpath
func Leak() *int {
	v := 42 // want "compiler escape in hotpath function Leak: moved to heap: v"
	return &v
}

// Grow allocates a fresh slice per call.
//
//pinlint:hotpath
func Grow(n int) []byte {
	return make([]byte, n) // want "compiler escape in hotpath function Grow: make"
}

// BoxInt boxes its argument into an interface.
//
//pinlint:hotpath
func BoxInt(n int) {
	sink = n // want "compiler escape in hotpath function BoxInt: n escapes to heap"
}

// coldAlloc is not annotated: the same escape is no diagnostic there.
func coldAlloc() *int {
	v := 7
	return &v
}
