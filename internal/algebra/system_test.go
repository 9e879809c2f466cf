package algebra_test

import (
	"testing"

	"pinbcast/internal/algebra"
)

// BenchmarkConvertLevels converts one condition whose lower bound no
// candidate meets, so the whole ladder runs, each rung sizing its
// helpers by a binary search over forcing vectors.
func BenchmarkConvertLevels(b *testing.B) {
	bc := algebra.BC{Task: "i", M: 8, D: []int{512, 552, 592, 632, 672, 712}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := algebra.Convert(bc); err != nil {
			b.Fatal(err)
		}
	}
}
