package eig

import (
	"errors"
	"fmt"
	"math"

	"spcg/internal/dense"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// RitzPairs holds approximate eigenpairs of (M⁻¹)A from a Lanczos process.
type RitzPairs struct {
	// Values are the Ritz values, ascending.
	Values []float64
	// Vectors holds the corresponding Ritz vectors as columns.
	Vectors *vec.Block
	// Residuals[i] estimates ‖A·v_i − λ_i·v_i‖ via the standard Lanczos
	// bottom-entry bound β_m·|y_m,i|.
	Residuals []float64
}

// Lanczos runs m iterations of the symmetric Lanczos process on A (plain,
// un-preconditioned) with full reorthogonalization and returns the k extreme
// Ritz pairs from the requested end of the spectrum (smallest if lowest is
// true). Full reorthogonalization costs O(m²n) but keeps the basis
// numerically orthonormal, so the Ritz vectors are usable for deflation —
// the use case of paper ref. [4].
func Lanczos(a *sparse.CSR, m, k int, lowest bool, seed int64) (*RitzPairs, error) {
	n := a.Dim()
	if m < 1 || m > n {
		return nil, fmt.Errorf("eig: Lanczos steps %d out of range 1..%d", m, n)
	}
	if k < 1 || k > m {
		return nil, fmt.Errorf("eig: Lanczos wants %d pairs from %d steps", k, m)
	}
	// Deterministic pseudo-random start vector.
	v := make([]float64, n)
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := range v {
		state = state*2862933555777941757 + 3037000493
		v[i] = float64(int64(state>>11))/(1<<52) - 1
	}
	nrm := vec.Norm2(v)
	if nrm == 0 {
		return nil, errors.New("eig: zero start vector")
	}
	vec.Scale(1/nrm, v)

	basisV := vec.NewBlock(n, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m)
	w := make([]float64, n)

	copy(basisV.Col(0), v)
	steps := 0
	finalBeta := 0.0 // ‖w‖ after the last executed step: the restart residual
	for j := 0; j < m; j++ {
		a.MulVec(w, basisV.Col(j))
		if j > 0 {
			vec.Axpy(-beta[j-1], basisV.Col(j-1), w)
		}
		al := vec.Dot(w, basisV.Col(j))
		alpha = append(alpha, al)
		vec.Axpy(-al, basisV.Col(j), w)
		// Full reorthogonalization (twice is enough).
		for pass := 0; pass < 2; pass++ {
			for i := 0; i <= j; i++ {
				c := vec.Dot(w, basisV.Col(i))
				vec.Axpy(-c, basisV.Col(i), w)
			}
		}
		steps = j + 1
		bnorm := vec.Norm2(w)
		finalBeta = bnorm
		if j+1 < m {
			if bnorm < 1e-14 {
				break // invariant subspace found
			}
			beta = append(beta, bnorm)
			vec.ScaleInto(basisV.Col(j+1), 1/bnorm, w)
		}
	}

	// Solve the tridiagonal eigenproblem with vectors.
	tm := dense.NewMat(steps, steps)
	for i := 0; i < steps; i++ {
		tm.Set(i, i, alpha[i])
		if i+1 < steps {
			tm.Set(i, i+1, beta[i])
			tm.Set(i+1, i, beta[i])
		}
	}
	vals, y, err := dense.SymEigenVec(tm)
	if err != nil {
		return nil, err
	}
	if k > steps {
		k = steps
	}
	// Pick indices from the requested end (vals ascending).
	idx := make([]int, k)
	for i := 0; i < k; i++ {
		if lowest {
			idx[i] = i
		} else {
			idx[i] = steps - k + i
		}
	}
	out := &RitzPairs{
		Values:    make([]float64, k),
		Vectors:   vec.NewBlock(n, k),
		Residuals: make([]float64, k),
	}
	coef := make([]float64, steps)
	for c, id := range idx {
		out.Values[c] = vals[id]
		for i := 0; i < steps; i++ {
			coef[i] = y.At(i, id)
		}
		basisV.View(0, steps).MulVec(out.Vectors.Col(c), coef)
		out.Residuals[c] = math.Abs(finalBeta * y.At(steps-1, id))
	}
	return out, nil
}
