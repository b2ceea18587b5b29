// Package mathx provides the small dense linear-algebra and statistics
// kernel shared by the learning and modeling packages. It is deliberately
// minimal: column-major is avoided, everything is row-major float64, and all
// operations allocate their results unless an In-place variant is provided.
package mathx

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Scale returns s*m.
func (m *Matrix) Scale(s float64) *Matrix {
	c := m.Clone()
	for i := range c.Data {
		c.Data[i] *= s
	}
	return c
}

// MulVecInto computes dst = m*x without allocating and returns dst.
// len(dst) must equal m.Rows and dst must not alias x.
func (m *Matrix) MulVecInto(dst, x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("mathx: mulvec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: mulvec dst length %d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
	return dst
}
