package gfmat

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"pinbcast/internal/gf256"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, byte(rng.Intn(256)))
		}
	}
	return m
}

// fromRows builds a matrix from explicit, equally long rows.
func fromRows(rows [][]byte) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// equal reports whether a and b have identical shape and elements.
func equal(a, b *Matrix) bool {
	return a.rows == b.rows && a.cols == b.cols && bytes.Equal(a.data, b.data)
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.rows != 3 || m.cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.rows, m.cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %d, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestFromRowsAndEqual(t *testing.T) {
	m := fromRows([][]byte{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("fromRows content wrong: %v", m)
	}
	if !equal(m, m.Clone()) {
		t.Fatal("clone not equal to original")
	}
	if equal(m, New(2, 3)) {
		t.Fatal("matrices of different shape reported equal")
	}
}

func TestIdentityMulIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 5, 5)
	if !equal(Identity(5).Mul(m), m) {
		t.Fatal("I·m != m")
	}
	if !equal(m.Mul(Identity(5)), m) {
		t.Fatal("m·I != m")
	}
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 4, 6)
	b := randomMatrix(rng, 6, 3)
	got := a.Mul(b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			var want byte
			for k := 0; k < 6; k++ {
				want ^= gf256.MulTable(a.At(i, k))[b.At(k, j)]
			}
			if got.At(i, j) != want {
				t.Fatalf("(%d,%d): got %#x want %#x", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]byte{{1, 0, 2}, {0, 1, 3}})
	v := fromRows([][]byte{{5}, {7}, {1}}) // a column vector
	got := m.Mul(v)
	want := []byte{
		5 ^ gf256.MulTable(2)[1],
		7 ^ gf256.MulTable(3)[1],
	}
	if got.At(0, 0) != want[0] || got.At(1, 0) != want[1] {
		t.Fatalf("m·v = %v, want %v", got, want)
	}
}

func TestInvertIdentity(t *testing.T) {
	inv, err := Identity(4).Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !equal(inv, Identity(4)) {
		t.Fatal("inverse of identity is not identity")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	found := 0
	for trial := 0; trial < 50; trial++ {
		m := randomMatrix(rng, 6, 6)
		inv, err := m.Invert()
		if err != nil {
			continue // singular random matrix: fine, skip
		}
		found++
		if !equal(m.Mul(inv), Identity(6)) {
			t.Fatalf("m·m⁻¹ != I for\n%v", m)
		}
		if !equal(inv.Mul(m), Identity(6)) {
			t.Fatalf("m⁻¹·m != I for\n%v", m)
		}
	}
	if found < 10 {
		t.Fatalf("only %d invertible matrices in 50 trials; RNG suspect", found)
	}
}

func TestInvertSingular(t *testing.T) {
	m := fromRows([][]byte{{1, 2}, {1, 2}})
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	z := New(3, 3)
	if _, err := z.Invert(); err != ErrSingular {
		t.Fatalf("zero matrix: err = %v, want ErrSingular", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := New(2, 3).Invert(); err == nil {
		t.Fatal("inverting non-square matrix did not error")
	}
}

func TestVandermondeAnySubmatrixInvertible(t *testing.T) {
	// The defining property for IDA: any m rows of the N×m Vandermonde
	// matrix form an invertible matrix. Exhaustive over 3-subsets of 8 rows.
	const n, m = 8, 3
	v := Vandermonde(n, m)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				sub := v.SelectRows([]int{a, b, c})
				if _, err := sub.Invert(); err != nil {
					t.Fatalf("rows {%d,%d,%d} singular", a, b, c)
				}
			}
		}
	}
}

func TestVandermondeRandomSubsets(t *testing.T) {
	const n, m = 40, 10
	v := Vandermonde(n, m)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		idx := rng.Perm(n)[:m]
		if _, err := v.SelectRows(idx).Invert(); err != nil {
			t.Fatalf("rows %v singular", idx)
		}
	}
}

func TestVandermondeTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Vandermonde(257, 3) did not panic")
		}
	}()
	Vandermonde(257, 3)
}

func TestSelectRows(t *testing.T) {
	m := fromRows([][]byte{{1, 1}, {2, 2}, {3, 3}})
	s := m.SelectRows([]int{2, 0})
	if s.At(0, 0) != 3 || s.At(1, 0) != 1 {
		t.Fatalf("SelectRows wrong: %v", s)
	}
}

func TestMulAssociativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		c := randomMatrix(rng, 2, 5)
		return equal(a.Mul(b).Mul(c), a.Mul(b.Mul(c)))
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInverseSolvesLinearSystem(t *testing.T) {
	// Dispersal/reconstruction in miniature: y = A·x, then x = A⁻¹·y.
	rng := rand.New(rand.NewSource(6))
	a := Vandermonde(5, 5)
	inv, err := a.Invert()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x := New(5, 1) // a column vector
		rng.Read(x.data)
		y := a.Mul(x)
		if back := inv.Mul(y); !equal(back, x) {
			t.Fatalf("round trip failed: %v -> %v -> %v", x, y, back)
		}
	}
}

func BenchmarkInvert16(b *testing.B) {
	m := Vandermonde(16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul32(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randomMatrix(rng, 32, 32)
	y := randomMatrix(rng, 32, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

func TestSystematicVandermondeTopIdentity(t *testing.T) {
	for _, p := range []struct{ n, m int }{{1, 1}, {4, 2}, {10, 5}, {12, 8}, {40, 20}} {
		s := SystematicVandermonde(p.n, p.m)
		if s.rows != p.n || s.cols != p.m {
			t.Fatalf("(%d,%d): got %dx%d", p.n, p.m, s.rows, s.cols)
		}
		for i := 0; i < p.m; i++ {
			for j := 0; j < p.m; j++ {
				want := byte(0)
				if i == j {
					want = 1
				}
				if s.At(i, j) != want {
					t.Fatalf("(%d,%d): top block not identity at (%d,%d)", p.n, p.m, i, j)
				}
			}
		}
	}
}

func TestSystematicVandermondeSubmatricesInvertible(t *testing.T) {
	// The §2.1 property must survive the systematic transformation:
	// every m-row submatrix is invertible. Exhaustive over a small case.
	const n, m = 8, 3
	s := SystematicVandermonde(n, m)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				sub := s.SelectRows([]int{a, b, c})
				if _, err := sub.Invert(); err != nil {
					t.Fatalf("submatrix {%d,%d,%d} singular", a, b, c)
				}
			}
		}
	}
}
