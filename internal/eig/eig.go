// Package eig estimates eigenvalues of the (preconditioned) operator M⁻¹A.
// The paper's experimental setup computes the spectral estimates needed for
// the Chebyshev basis, the Newton shifts and the Chebyshev preconditioner
// "with a few iterations of standard PCG" (§5.1); this package implements
// exactly that: it runs k steps of PCG, assembles the Lanczos tridiagonal
// from the CG coefficients and returns its Ritz values, whose extremes
// estimate λmin/λmax of M⁻¹A.
package eig

import (
	"errors"
	"fmt"
	"math"

	"spcg/internal/dense"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// Estimate holds a spectral estimate of a (preconditioned) operator.
type Estimate struct {
	// Ritz are the Ritz values in ascending order (Newton shift candidates).
	Ritz []float64
	// LambdaMin and LambdaMax bound the spectrum estimate. They are the
	// extreme Ritz values widened by a safety factor so that Chebyshev
	// intervals cover the true spectrum with high probability.
	LambdaMin, LambdaMax float64
	// Iterations is the number of CG steps actually run.
	Iterations int
}

// ErrBreakdown is returned when the estimation CG breaks down before
// producing any usable coefficients (e.g. b = 0 or an indefinite operator).
var ErrBreakdown = errors.New("eig: Lanczos/CG breakdown before any Ritz values")

// Options configures RitzFromPCG.
type Options struct {
	// Iterations is the number of CG steps (default 2s is the paper's
	// suggestion for s-step bases; we default to 20).
	Iterations int
}

const (
	// safetyFactor widens λmax multiplicatively.
	safetyFactor = 1.05
	// lowerSafetyFactor divides the smallest Ritz value to obtain λmin.
	// Lanczos converges to the largest eigenvalue quickly but overestimates
	// the smallest one badly on clustered spectra; an interval whose lower
	// end sits above true λmin amplifies the uncovered eigencomponents in
	// every Chebyshev-basis block, which stalls s-step convergence —
	// widening downward is cheap insurance (it only slightly worsens basis
	// conditioning).
	lowerSafetyFactor = 10
)

// RitzFromPCG runs k iterations of PCG on A with preconditioner M (apply
// function) and right-hand side a deterministic random vector, building the
// Lanczos tridiagonal from the α/β coefficients:
//
//	T[j,j]   = 1/α_j + β_j/α_{j−1}   (β₀/α₋₁ := 0)
//	T[j,j+1] = T[j+1,j] = √β_{j+1} / α_j
//
// Its eigenvalues are the Ritz values of M⁻¹A.
func RitzFromPCG(a sparse.Matrix, applyM func(dst, src []float64), opts Options) (*Estimate, error) {
	n := a.Dim()
	k := opts.Iterations
	if k <= 0 {
		k = 20
	}
	if k > n {
		k = n
	}
	if applyM == nil {
		applyM = func(dst, src []float64) { copy(dst, src) }
	}

	// Deterministic pseudo-random b, full-spectrum with high probability.
	b := make([]float64, n)
	state := uint64(3037000493) // the seed-0 start of the stream
	for i := range b {
		state = state*2862933555777941757 + 3037000493
		b[i] = float64(int64(state>>11))/(1<<52) - 1
	}

	r := append([]float64(nil), b...)
	u := make([]float64, n)
	applyM(u, r)
	p := append([]float64(nil), u...)
	ap := make([]float64, n)

	var alphas, betas []float64
	rho := vec.Dot(r, u)
	if rho <= 0 || math.IsNaN(rho) {
		return nil, fmt.Errorf("%w: initial rᵀM⁻¹r = %v", ErrBreakdown, rho)
	}
	for j := 0; j < k; j++ {
		a.MulVecPar(ap, p)
		den := vec.Dot(p, ap)
		if den <= 0 || math.IsNaN(den) {
			break // operator numerically indefinite along p: stop with what we have
		}
		alpha := rho / den
		alphas = append(alphas, alpha)
		vec.Axpy(-alpha, ap, r)
		applyM(u, r)
		rhoNew := vec.Dot(r, u)
		if rhoNew <= 0 || math.IsNaN(rhoNew) || rhoNew < 1e-30*rho {
			break // converged or broke down: tridiagonal stays as is
		}
		beta := rhoNew / rho
		betas = append(betas, beta)
		rho = rhoNew
		vec.XpayInto(p, u, beta, p)
	}
	m := len(alphas)
	if m == 0 {
		return nil, ErrBreakdown
	}
	diag := make([]float64, m)
	off := make([]float64, m-1)
	for j := 0; j < m; j++ {
		diag[j] = 1 / alphas[j]
		if j > 0 {
			diag[j] += betas[j-1] / alphas[j-1]
		}
		if j < m-1 {
			off[j] = math.Sqrt(betas[j]) / alphas[j]
		}
	}
	ritz, err := dense.TridiagEigen(diag, off)
	if err != nil {
		return nil, fmt.Errorf("eig: tridiagonal eigensolve: %w", err)
	}
	lo, hi := ritz[0], ritz[m-1]
	hi *= safetyFactor
	lo /= lowerSafetyFactor
	if lo <= 0 || lo < hi*1e-10 {
		lo = hi * 1e-10
	}
	return &Estimate{Ritz: ritz, LambdaMin: lo, LambdaMax: hi, Iterations: m}, nil
}
