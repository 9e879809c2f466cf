// Package hotpathbad exercises every hotpath diagnostic.
package hotpathbad

import "fmt"

type pair struct{ a, b int }

func pairValue() pair { return pair{} }

func cold(b []byte) {}

// The sinks make a value outlive its function: what is stored here
// escapes, which is what the compiler is asked about.
var (
	sinkMap   map[string]int
	sinkSlice []int
	sinkPair  *pair
	sinkFunc  func()
	sinkAny   interface{}
)

// emit is the per-slot path.
//
//pinlint:hotpath
func emit(out []byte, items []int) []byte {
	var buf []byte
	for _, it := range items {
		buf = append(buf, byte(it)) // want "append to buf in hotpath function emit may grow without preallocated capacity"
	}
	s := "slot: " + string(buf) // want "string concatenation"
	s += "!"                    // want "string concatenation"
	_ = s
	sinkMap = map[string]int{}    // want "compiler escape in hotpath function emit: map.string.int.. escapes to heap"
	sinkSlice = []int{1, 2}       // want "compiler escape in hotpath function emit: ..int.\\.\\.\\.. escapes to heap"
	sinkPair = &pair{}            // want "compiler escape in hotpath function emit: &pair.. escapes to heap"
	sinkPair = new(pair)          // want "compiler escape in hotpath function emit: new.pair. escapes to heap"
	sinkFunc = func() { _ = out } // want "compiler escape in hotpath function emit: func literal escapes to heap"
	fmt.Println()                 // want "call to fmt.Println"
	cold(out)                     // want "calls cold, which is not annotated"
	sinkAny = pairValue()         // want "compiler escape in hotpath function emit: .* escapes to heap" "calls pairValue"
	go cold(nil)                  // want "go statement" "calls cold"
	return out
}

// boxedReturn returns a concrete value through an interface result.
//
//pinlint:hotpath
func boxedReturn() interface{} {
	return pairValue() // want "compiler escape in hotpath function boxedReturn: .* escapes to heap" "calls pairValue"
}
