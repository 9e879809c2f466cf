package algebra_test

import (
	"testing"

	"pinbcast/internal/algebra"
	"pinbcast/internal/workload"
)

// BenchmarkConvertSystem converts the constant-vector twin of IVHS(16)
// at its minimum bandwidth, b = 5: each file's bc(i, m, (5·T, …, 5·T))
// reaches its lower bound on the first candidate, pc(m + r, 5·T).
func BenchmarkConvertSystem(b *testing.B) {
	const bandwidth = 5
	var bcs []algebra.BC
	for _, f := range workload.IVHS(16, 1) {
		d := make([]int, f.Faults+1)
		for j := range d {
			d[j] = bandwidth * f.Latency
		}
		bcs = append(bcs, algebra.BC{Task: f.Name, M: f.Blocks, D: d})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algebra.ConvertSystem(bcs); err != nil {
			b.Fatal(err)
		}
	}
}
