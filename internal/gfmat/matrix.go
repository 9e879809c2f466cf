// Package gfmat implements dense matrix algebra over GF(2⁸).
//
// It provides exactly the operations Rabin's Information Dispersal
// Algorithm needs (§2.1 of Baruah & Bestavros): building an N×m dispersal
// matrix whose every m×m row-submatrix is invertible, multiplying it by
// file data, and inverting the m×m submatrix selected by the blocks a
// client actually received.
package gfmat

import (
	"errors"
	"fmt"

	"pinbcast/internal/gf256"
)

// ErrSingular is returned by Invert when the matrix has no inverse.
var ErrSingular = errors.New("gfmat: matrix is singular")

// Matrix is a dense row-major matrix over GF(2⁸). The zero value is an
// empty matrix; use New or a composite literal to build one.
type Matrix struct {
	rows, cols int
	data       []byte // len == rows*cols, row-major
}

// New returns a zero rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("gfmat: negative dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row i, column j.
//
//pinlint:hotpath
func (m *Matrix) At(i, j int) byte { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v byte) { m.data[i*m.cols+j] = v }

// Row returns row i as a mutable slice aliasing the matrix storage.
//
//pinlint:hotpath
func (m *Matrix) Row(i int) []byte { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// String renders the matrix in hexadecimal, one row per line.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%02x", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// Mul returns the product m·o. It panics if the shapes are incompatible.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("gfmat: shape mismatch %dx%d · %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := New(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mRow := m.Row(i)
		pRow := p.Row(i)
		for k, c := range mRow {
			if c != 0 {
				gf256.MulAddSlice(c, o.Row(k), pRow)
			}
		}
	}
	return p
}

// SelectRows returns a new matrix consisting of the given rows of m,
// in the given order.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	s := New(len(idx), m.cols)
	for i, r := range idx {
		copy(s.Row(i), m.Row(r))
	}
	return s
}

// Invert returns the inverse of a square matrix using Gauss–Jordan
// elimination with partial pivoting (any nonzero pivot suffices in a
// field). It returns ErrSingular when no inverse exists.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("gfmat: cannot invert %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a nonzero pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize the pivot row.
		if p := a.At(col, col); p != 1 {
			scale := gf256.Inv(p)
			gf256.MulSlice(scale, a.Row(col), a.Row(col))
			gf256.MulSlice(scale, inv.Row(col), inv.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := a.At(r, col); f != 0 {
				gf256.MulAddSlice(f, a.Row(col), a.Row(r))
				gf256.MulAddSlice(f, inv.Row(col), inv.Row(r))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Vandermonde returns the n×m Vandermonde matrix with row i equal to
// [1, xᵢ, xᵢ², …, xᵢ^(m−1)] for xᵢ = the i-th field element (xᵢ = i).
// Because the xᵢ are distinct, every m×m submatrix formed by choosing m
// distinct rows is itself a Vandermonde matrix with distinct nodes and
// hence invertible — exactly the property §2.1 requires of the dispersal
// transformation [x_ij]. n must be at most 256.
func Vandermonde(n, m int) *Matrix {
	if n > 256 {
		panic("gfmat: Vandermonde supports at most 256 rows over GF(2⁸)")
	}
	v := New(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			v.Set(i, j, gf256.Pow(byte(i), j))
		}
	}
	return v
}

// SystematicVandermonde returns V·inv(V[:m]) for the n×m Vandermonde
// matrix V: the top m×m block becomes the identity while every m×m
// row-submatrix stays invertible (each is a submatrix of V multiplied by
// the fixed invertible inv(V[:m])). A dispersal matrix in this form makes
// the first m coded blocks verbatim copies of the source blocks, so
// encoding costs only the n−m redundant rows and a fault-free decode is a
// straight copy — the standard construction of production Reed–Solomon
// codecs, with the §2.1 any-m-of-n property intact.
func SystematicVandermonde(n, m int) *Matrix {
	v := Vandermonde(n, m)
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	inv, err := v.SelectRows(idx).Invert()
	if err != nil {
		// The top block of a Vandermonde matrix with distinct nodes is
		// always invertible.
		panic("gfmat: Vandermonde top block singular: " + err.Error())
	}
	s := v.Mul(inv)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if s.At(i, j) != want {
				panic("gfmat: systematic top block is not the identity")
			}
		}
	}
	return s
}
