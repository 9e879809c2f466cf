package algebra_test

import (
	"fmt"
	"testing"

	"pinbcast/internal/algebra"
	"pinbcast/internal/workload"
)

// BenchmarkConvertSystem converts the constant-vector twins of IVHS(16)
// at its minimum bandwidth, b = 5, and of IVHS(64) at b = 22: each
// file's bc(i, m, (b·T, …, b·T)) reaches its lower bound on the first
// candidate, pc(m + r, b·T). IVHS(64)'s horizons reach 4 402 slots.
func BenchmarkConvertSystem(b *testing.B) {
	for _, c := range []struct{ files, bandwidth int }{{16, 5}, {64, 22}} {
		var bcs []algebra.BC
		for _, f := range workload.IVHS(c.files, 1) {
			d := make([]int, f.Faults+1)
			for j := range d {
				d[j] = c.bandwidth * f.Latency
			}
			bcs = append(bcs, algebra.BC{Task: f.Name, M: f.Blocks, D: d})
		}
		b.Run(fmt.Sprintf("ivhs%d/b=%d", c.files, c.bandwidth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := algebra.ConvertSystem(bcs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
