// Package dense implements small dense matrix algebra for the O(s)×O(s)
// "Scalar Work" of the s-step solvers: the Gram matrices, the s×s linear
// solves for a⁽ᵏ⁾ and B⁽ᵏ⁾, and the symmetric tridiagonal eigenproblem used
// to harvest Ritz values for Newton shifts and Chebyshev intervals.
//
// Matrices are row-major. Dimensions are O(s) (a few tens at most), so the
// package optimizes for clarity and robustness (pivoting, SPD verification,
// typed breakdown errors) rather than blocking.
package dense

import (
	"errors"
	"fmt"
	"math"
)

// Mat is a row-major r×c dense matrix.
type Mat struct {
	R, C int
	Data []float64
}

// NewMat returns a zero r×c matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: NewMat invalid shape %d×%d", r, c))
	}
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// FromRowMajor wraps data (not copied) as an r×c matrix.
func FromRowMajor(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("dense: FromRowMajor %d×%d needs %d entries, got %d", r, c, r*c, len(data)))
	}
	return &Mat{R: r, C: c, Data: data}
}

// At returns element (i,j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i,j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Add adds v to element (i,j).
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.C+j] += v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	return &Mat{R: m.R, C: m.C, Data: append([]float64(nil), m.Data...)}
}

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	t := NewMat(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Eye returns the n×n identity.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MatMul returns a·b.
func MatMul(a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("dense: MatMul shape mismatch %d×%d · %d×%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for k := 0; k < a.C; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.C; j++ {
				out.Data[i*out.C+j] += aik * b.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns a·x for a vector x of length a.C.
func (m *Mat) MulVec(x []float64) []float64 {
	if len(x) != m.C {
		panic(fmt.Sprintf("dense: MulVec length %d != %d columns", len(x), m.C))
	}
	out := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		var s float64
		row := m.Data[i*m.C : (i+1)*m.C]
		for j, xj := range x {
			s += row[j] * xj
		}
		out[i] = s
	}
	return out
}

// Scale multiplies every entry by alpha in place.
func (m *Mat) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// AddMat computes m += alpha·b in place.
func (m *Mat) AddMat(alpha float64, b *Mat) {
	if m.R != b.R || m.C != b.C {
		panic("dense: AddMat shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += alpha * b.Data[i]
	}
}

// NormFro returns the Frobenius norm.
func (m *Mat) NormFro() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Symmetrize replaces m by (m+mᵀ)/2 in place. Used on Gram matrices that are
// symmetric in exact arithmetic but not in floating point.
func (m *Mat) Symmetrize() {
	if m.R != m.C {
		panic("dense: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.R; i++ {
		for j := i + 1; j < m.C; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// ErrSingular is returned when a factorization meets an (effectively) zero
// pivot. For the s-step solvers this signals numerical breakdown of the
// s-step basis — the condition the paper's Table 2 hyphens correspond to.
var ErrSingular = errors.New("dense: matrix is singular to working precision")

// ErrNotSPD is returned by Cholesky when the matrix is not positive definite.
var ErrNotSPD = errors.New("dense: matrix is not symmetric positive definite")
