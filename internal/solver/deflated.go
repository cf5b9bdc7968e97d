package solver

import (
	"fmt"
	"math"

	"spcg/internal/dense"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// DeflatedPCG solves A·x = b with deflation of a given subspace W (paper
// ref. [4], Carson–Knight–Demmel, here applied to standard PCG): search
// happens A-orthogonally to span(W), which removes the eigenvalues W captures
// from the effective spectrum. With W spanning approximations of the lowest
// eigenvectors — e.g. Ritz vectors from eig.RitzFromPCG — the preconditioned
// condition number drops to λmax/λ_{k+1} and iteration counts fall
// accordingly.
//
// Implementation: the projector Π = I − A·W·(WᵀAW)⁻¹·Wᵀ is applied to every
// residual, and the final solution is corrected by the deflated component
// x += W·(WᵀAW)⁻¹·Wᵀ·b. Each application costs one (small) dense solve and
// 2k axpys; AW is precomputed.
func DeflatedPCG(a sparse.Matrix, m precond.Interface, b []float64, w *vec.Block, opts Options) ([]float64, *Stats, error) {
	if w == nil || w.S() == 0 {
		return PCG(a, m, b, opts)
	}
	if opts.X0 != nil {
		return nil, nil, fmt.Errorf("solver: DeflatedPCG does not support a nonzero initial guess")
	}
	return runLocal(func(c *ctx) ([]float64, error) { return deflated(c, w) }, a, m, b, opts)
}

func deflated(c *ctx, w *vec.Block) ([]float64, error) {
	n, stats := c.n, c.stats
	if w.N != n {
		return nil, fmt.Errorf("%w: deflation block has %d rows, n=%d", ErrDimension, w.N, n)
	}
	k := w.S()

	// Precompute AW and factor WᵀAW.
	aw := vec.NewBlock(n, k)
	for j := 0; j < k; j++ {
		c.spmv(aw.Col(j), w.Col(j))
	}
	waw := dense.FromRowMajor(k, k, c.allreduce(c.gramLocal(w, aw)))
	waw.Symmetrize()
	if cond := dense.Cond2SPD(waw); cond > 1e12 {
		return nil, fmt.Errorf("solver: WᵀAW has condition %.2g — deflation vectors are numerically dependent", cond)
	}
	chol, err := dense.Cholesky(waw)
	if err != nil {
		return nil, fmt.Errorf("solver: WᵀAW not SPD (deflation vectors dependent?): %w", err)
	}

	// correction returns (WᵀAW)⁻¹·Wᵀ·v (one k-value allreduce).
	correction := func(v []float64) ([]float64, error) {
		coef := c.allreduce(c.gramVecLocal(w, v))
		return coef, chol.Solve(coef)
	}
	// project applies Π: v −= AW·(WᵀAW)⁻¹·Wᵀ·v.
	project := func(v []float64) error {
		coef, err := correction(v)
		if err == nil {
			c.blockMulVecAdd(v, -1, aw, coef)
		}
		return err
	}
	// finish adds the deflated component: the CG part leaves a residual
	// inside A·span(W), removed by x += W·(WᵀAW)⁻¹·Wᵀ·(b − A·x). It runs on
	// every exit, so a cancelled run's partial iterate carries its exactly
	// solvable component too.
	x := c.x
	finish := func(err error) ([]float64, error) {
		coef, cerr := correction(c.explicitResidual(x))
		if cerr != nil {
			return nil, cerr
		}
		c.blockMulVecAdd(x, 1, w, coef)
		return x, err
	}

	r := append([]float64(nil), c.b...)
	u := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)

	if err := project(r); err != nil {
		return nil, err
	}
	c.applyM(u, r)
	rho := c.dot(r, u)
	if !finite(rho) || rho < 0 {
		c.breakdown(siteRho, "initial rᵀM⁻¹r = %v", rho)
		return finish(nil)
	}
	copy(p, u)

	initial := math.Sqrt(math.Max(rho, 0))
	if c.opts.Criterion != RecursiveResidualMNorm {
		initial = math.Sqrt(c.dot(r, r))
	}
	if c.done(initial) {
		return finish(nil)
	}

	for i := 0; i < c.opts.MaxIterations; i++ {
		if c.cancelled() {
			return finish(ErrCancelled)
		}
		c.spmv(s, p)
		if err := project(s); err != nil {
			c.breakdown(siteDeflate, "%v", err)
			break
		}
		den := c.dot(p, s)
		if !finite(den) || den <= 0 {
			c.breakdown(siteCurv, "pᵀΠAp = %v at iteration %d", den, i)
			break
		}
		alpha := rho / den
		c.axpy(alpha, p, x)
		c.axpy(-alpha, s, r)
		c.applyM(u, r)
		rhoNew := c.dot(r, u)
		if !finite(rhoNew) || rhoNew < 0 {
			c.breakdown(siteRho, "rᵀM⁻¹r = %v at iteration %d", rhoNew, i)
			break
		}
		beta := rhoNew / rho
		rho = rhoNew
		c.xpay(p, u, beta, p)

		stats.Iterations = i + 1
		stats.OuterIterations = i + 1
		// All criteria reduce to the projected M-norm here: the deflated
		// residual lives in the complement of A·span(W), so 2-norm-style
		// criteria would miss the (exactly solvable) deflated component.
		// Stats.TrueRelResidual reports the honest full residual after the
		// correction step.
		if c.done(math.Sqrt(rho)) {
			break
		}
	}
	return finish(nil)
}
