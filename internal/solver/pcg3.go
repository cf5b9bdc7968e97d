package solver

import (
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// PCG3 solves A·x = b with the Rutishauser three-term-recurrence variant of
// PCG — the mathematical basis of CA-PCG3 (paper §2.4). Instead of search
// directions it updates residuals (and solutions) with
//
//	r⁽ⁱ⁺¹⁾ = ρ⁽ⁱ⁾(r⁽ⁱ⁾ − γ⁽ⁱ⁾·A·u⁽ⁱ⁾) + (1−ρ⁽ⁱ⁾)·r⁽ⁱ⁻¹⁾.
//
// Both inner products of an iteration (μ = rᵀu and ν = uᵀAu) are available
// together, so PCG3 needs only one (two-value) global reduction per
// iteration — but three-term recurrences accumulate rounding error faster
// than PCG's coupled two-term form (Gutknecht & Strakoš), which is the
// numerical weakness CA-PCG3 inherits.
func PCG3(a sparse.Matrix, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(pcg3, a, m, b, opts)
}

func pcg3(c *ctx) ([]float64, error) {
	n, stats := c.n, c.stats
	x, r := c.x, c.residual0(make([]float64, n))
	u := make([]float64, n)
	w := make([]float64, n)
	v := make([]float64, n)
	xPrev := make([]float64, n)
	rPrev := make([]float64, n)
	uPrev := make([]float64, n)
	xNext := make([]float64, n)
	rNext := make([]float64, n)
	uNext := make([]float64, n)

	c.applyM(u, r)
	mu := c.dot(r, u)
	if !finite(mu) || mu < 0 {
		c.breakdown(siteRho, "initial rᵀM⁻¹r = %v", mu)
		return x, nil
	}
	initial, ok := c.initialCriterion(r, mu)
	if !ok || c.done(initial) {
		return x, nil
	}

	rho := 1.0
	var gammaPrev, muPrev, rhoPrev float64
	for i := 0; i < c.opts.MaxIterations; i++ {
		if c.cancelled() {
			return x, ErrCancelled
		}
		c.spmvNext(w, u) // w = A·u
		c.applyM(v, w)   // v = M⁻¹·A·u
		// One collective: μ = rᵀu, ν = uᵀAu, and ‖r‖² when the criterion
		// needs it.
		dots := append(c.red[:0], c.localDot(r, u), c.localDot(u, w))
		if c.opts.Criterion == RecursiveResidual2Norm {
			dots = append(dots, c.localDot(r, r))
		}
		dots = c.allreduce(dots)
		mu, nu := dots[0], dots[1]
		var rr float64
		if len(dots) > 2 {
			rr = dots[2]
		}
		if !finite(mu, nu) || nu <= 0 || mu < 0 {
			c.breakdown(siteCurv, "μ=%v ν=%v at iteration %d", mu, nu, i)
			break
		}
		gamma := mu / nu
		if i > 0 {
			den := 1 - (gamma/gammaPrev)*(mu/muPrev)*(1/rhoPrev)
			if den == 0 || !finite(den) {
				c.breakdown(siteRecur, "ρ recurrence denominator %v at iteration %d", den, i)
				break
			}
			rho = 1 / den
		}

		// Three-term updates (BLAS1).
		c.threeTermUpdate(xNext, rho, x, -gamma, u, xPrev)
		c.threeTermUpdate(rNext, rho, r, gamma, w, rPrev)
		c.threeTermUpdate(uNext, rho, u, gamma, v, uPrev)
		xPrev, x, xNext = x, xNext, xPrev
		rPrev, r, rNext = r, rNext, rPrev
		uPrev, u, uNext = u, uNext, uPrev

		gammaPrev, muPrev, rhoPrev = gamma, mu, rho
		// u is final and w is free: the true-residual criterion below
		// computes A·u in its pass.
		c.offerNext(w, u)
		stats.Iterations = i + 1
		stats.OuterIterations = i + 1

		// rr is ‖r⁽ⁱ⁾‖² of the pre-update residual; the post-update norm
		// arrives next iteration. Accept the one-step lag (the s-step methods
		// lag by a whole block similarly).
		if c.done(c.critValue(x, mu, rr)) {
			break
		}
	}
	return x, nil
}
