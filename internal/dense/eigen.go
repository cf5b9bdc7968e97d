package dense

import (
	"errors"
	"math"
	"sort"
)

// ErrNoConverge is returned when an iterative eigensolver exceeds its
// iteration budget.
var ErrNoConverge = errors.New("dense: eigensolver failed to converge")

// TridiagEigen computes all eigenvalues of the symmetric tridiagonal matrix
// with diagonal d (length n) and off-diagonal e (length n−1) using the
// implicit QL algorithm with Wilkinson shifts. The inputs are not modified;
// eigenvalues are returned in ascending order.
//
// This is the workhorse behind Ritz-value harvesting: the CG/Lanczos process
// yields exactly such a tridiagonal matrix.
func TridiagEigen(d, e []float64) ([]float64, error) {
	n := len(d)
	if len(e) != n-1 && !(n == 0 && len(e) == 0) {
		return nil, errors.New("dense: TridiagEigen needs len(e) == len(d)-1")
	}
	if n == 0 {
		return nil, nil
	}
	dd := append([]float64(nil), d...)
	ee := make([]float64, n)
	copy(ee, e)
	ee[n-1] = 0

	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find small off-diagonal to split.
			m := l
			for ; m < n-1; m++ {
				s := math.Abs(dd[m]) + math.Abs(dd[m+1])
				if math.Abs(ee[m]) <= 1e-16*s {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= 60 {
				return nil, ErrNoConverge
			}
			// Wilkinson shift.
			g := (dd[l+1] - dd[l]) / (2 * ee[l])
			r := math.Hypot(g, 1)
			g = dd[m] - dd[l] + ee[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * ee[i]
				b := c * ee[i]
				r = math.Hypot(f, g)
				ee[i+1] = r
				if r == 0 {
					dd[i+1] -= p
					ee[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = dd[i+1] - p
				r = (dd[i]-g)*s + 2*c*b
				p = s * r
				dd[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			dd[l] -= p
			ee[l] = g
			ee[m] = 0
		}
	}
	sort.Float64s(dd)
	return dd, nil
}

// SymEigen computes all eigenvalues of a small symmetric matrix by cyclic
// Jacobi rotations. Used for diagnostics on Gram and basis matrices (their
// conditioning is the paper's explanation for monomial-basis failure).
// Eigenvalues are returned in ascending order.
func SymEigen(a *Mat) ([]float64, error) {
	vals, _, err := symJacobi(a, false)
	return vals, err
}

// SymEigenVec computes eigenvalues (ascending) and the corresponding
// orthonormal eigenvectors (columns of the returned matrix) of a small
// symmetric matrix.
func SymEigenVec(a *Mat) ([]float64, *Mat, error) {
	return symJacobi(a, true)
}

func symJacobi(a *Mat, wantVec bool) ([]float64, *Mat, error) {
	if a.R != a.C {
		return nil, nil, errors.New("dense: SymEigen on non-square matrix")
	}
	n := a.R
	w := a.Clone()
	var v *Mat
	if wantVec {
		v = Eye(n)
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off <= 1e-30*(1+w.NormFro()*w.NormFro()) {
			vals := make([]float64, n)
			for i := 0; i < n; i++ {
				vals[i] = w.At(i, i)
			}
			if !wantVec {
				sort.Float64s(vals)
				return vals, nil, nil
			}
			// Sort ascending, permuting eigenvector columns alongside.
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(x, y int) bool { return vals[order[x]] < vals[order[y]] })
			sv := make([]float64, n)
			pv := NewMat(n, n)
			for col, idx := range order {
				sv[col] = vals[idx]
				for row := 0; row < n; row++ {
					pv.Set(row, col, v.At(row, idx))
				}
			}
			return sv, pv, nil
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Hypot(1, tau))
				} else {
					t = -1 / (-tau + math.Hypot(1, tau))
				}
				c := 1 / math.Hypot(1, t)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				if wantVec {
					for k := 0; k < n; k++ {
						vkp, vkq := v.At(k, p), v.At(k, q)
						v.Set(k, p, c*vkp-s*vkq)
						v.Set(k, q, s*vkp+c*vkq)
					}
				}
			}
		}
	}
	return nil, nil, ErrNoConverge
}

// PseudoSolveSym solves a·x = rhs for a symmetric (possibly numerically
// rank-deficient) matrix via eigendecomposition, zeroing components with
// |λ| ≤ rcond·max|λ|. For the s-step solvers this implements a
// rank-revealing Scalar Work: when the s-step basis degenerates (common
// close to convergence, or with spectrally deficient right-hand sides), the
// block step is taken only in the numerically independent subspace —
// equivalent to locally shrinking s instead of breaking down.
//
//spcglint:ignore deadsurface the rank-safe Gram solve fallback (ROADMAP item 1(a)) decides whether a solver calls it
func PseudoSolveSym(a *Mat, rhs []float64, rcond float64) ([]float64, error) {
	x, err := PseudoSolveSymMat(a, FromRowMajor(len(rhs), 1, rhs), rcond)
	if err != nil {
		return nil, err
	}
	return x.Data, nil
}

// PseudoSolveSymMat solves a·X = B column-wise as PseudoSolveSym does,
// factoring the eigendecomposition once.
func PseudoSolveSymMat(a, b *Mat, rcond float64) (*Mat, error) {
	if a.R != b.R {
		return nil, errors.New("dense: PseudoSolveSymMat shape mismatch")
	}
	vals, v, err := SymEigenVec(a)
	if err != nil {
		return nil, err
	}
	if rcond <= 0 {
		rcond = 1e-13
	}
	var amax float64
	for _, l := range vals {
		if al := math.Abs(l); al > amax {
			amax = al
		}
	}
	n := a.R
	out := NewMat(n, b.C)
	for c := 0; c < b.C; c++ {
		for j := 0; j < n; j++ {
			if math.Abs(vals[j]) <= rcond*amax {
				continue
			}
			var proj float64
			for i := 0; i < n; i++ {
				proj += v.At(i, j) * b.At(i, c)
			}
			proj /= vals[j]
			for i := 0; i < n; i++ {
				out.Add(i, c, proj*v.At(i, j))
			}
		}
	}
	return out, nil
}
