package dense

import (
	"fmt"
	"math"
)

// Chol holds the lower-triangular Cholesky factor L with A = L·Lᵀ.
type Chol struct {
	n int
	l []float64 // row-major lower triangle (full storage)
}

// Cholesky factors the symmetric positive-definite matrix a. It returns
// ErrNotSPD if a pivot is non-positive, which the s-step solvers treat as
// basis breakdown.
func Cholesky(a *Mat) (*Chol, error) {
	if a.R != a.C {
		return nil, fmt.Errorf("dense: Cholesky on non-square %d×%d matrix", a.R, a.C)
	}
	n := a.R
	l := append([]float64(nil), a.Data...)
	for j := 0; j < n; j++ {
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s * inv
		}
	}
	// Zero the (unused) upper triangle for cleanliness.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	return &Chol{n: n, l: l}, nil
}

// Solve solves A·x = b in place over b.
func (c *Chol) Solve(b []float64) error {
	n := c.n
	if len(b) != n {
		return fmt.Errorf("dense: Chol.Solve rhs length %d != %d", len(b), n)
	}
	// Forward L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*n+k] * b[k]
		}
		b[i] = s / c.l[i*n+i]
	}
	// Backward Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= c.l[k*n+i] * b[k]
		}
		b[i] = s / c.l[i*n+i]
	}
	return nil
}

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// LUFactor factors a square matrix with partial pivoting. Returns
// ErrSingular when a pivot underflows relative to the matrix scale.
func LUFactor(a *Mat) (*LU, error) {
	if a.R != a.C {
		return nil, fmt.Errorf("dense: LUFactor on non-square %d×%d matrix", a.R, a.C)
	}
	n := a.R
	lu := append([]float64(nil), a.Data...)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	var scale float64
	for _, v := range lu {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	if scale == 0 {
		return nil, ErrSingular
	}
	for k := 0; k < n; k++ {
		// Pivot search.
		p, pm := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if av := math.Abs(lu[i*n+k]); av > pm {
				p, pm = i, av
			}
		}
		if pm <= 1e-300 || pm < 1e-14*scale {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		inv := 1 / lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] * inv
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv}, nil
}

// Solve solves A·x = b; b is replaced by x.
func (f *LU) Solve(b []float64) error {
	n := f.n
	if len(b) != n {
		return fmt.Errorf("dense: LU.Solve rhs length %d != %d", len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitute (unit lower).
	for i := 1; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= f.lu[i*n+k] * x[k]
		}
		x[i] = s
	}
	// Back substitute.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= f.lu[i*n+k] * x[k]
		}
		x[i] = s / f.lu[i*n+i]
	}
	copy(b, x)
	return nil
}

// SolveMat solves A·X = B column-wise; B is overwritten with X.
func (f *LU) SolveMat(b *Mat) error {
	if b.R != f.n {
		return fmt.Errorf("dense: LU.SolveMat rhs rows %d != %d", b.R, f.n)
	}
	col := make([]float64, f.n)
	for j := 0; j < b.C; j++ {
		for i := 0; i < b.R; i++ {
			col[i] = b.At(i, j)
		}
		if err := f.Solve(col); err != nil {
			return err
		}
		for i := 0; i < b.R; i++ {
			b.Set(i, j, col[i])
		}
	}
	return nil
}

// Solve solves a·x = b with LU partial pivoting, returning a fresh slice.
func Solve(a *Mat, b []float64) ([]float64, error) {
	f, err := LUFactor(a)
	if err != nil {
		return nil, err
	}
	x := append([]float64(nil), b...)
	if err := f.Solve(x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveSPD solves a·x = b by Cholesky, falling back to LU if a is not
// numerically SPD (Gram matrices lose definiteness exactly when the s-step
// basis degenerates; the LU fallback lets the solver limp to its divergence
// detector instead of stopping on a sharp error).
func SolveSPD(a *Mat, b []float64) ([]float64, error) {
	if c, err := Cholesky(a); err == nil {
		x := append([]float64(nil), b...)
		if err := c.Solve(x); err != nil {
			return nil, err
		}
		return x, nil
	}
	return Solve(a, b)
}
