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
func PCG3(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(pcg3, a, m, b, opts)
}

func pcg3(c *ctx) ([]float64, error) {
	n := c.n
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

	// first marks a step without a predecessor, which takes ρ = 1: the start,
	// or a resume from a rollback, which detection (opt-in) makes as at the
	// start.
	first := true
	var gammaPrev, muPrev, rhoPrev float64
	if c.opts.DetectEvery > 0 {
		c.arm(x, r, func(x0, r0 []float64) {
			copy(x, x0)
			copy(r, r0)
			c.applyM(u, r)
			clear(xPrev)
			clear(rPrev)
			clear(uPrev)
			first = true
		})
	}
	for i := 0; i < c.opts.MaxIterations; i++ {
		if c.cancelled() {
			return x, ErrCancelled
		}
		c.spmv(w, u)   // w = A·u
		c.applyM(v, w) // v = M⁻¹·A·u
		// One collective: μ = rᵀu, ν = uᵀAu, and ‖r‖² when a 2-norm
		// criterion needs it.
		dots := append(c.red[:0], c.localDot(r, u), c.localDot(u, w))
		if c.twoNorm() {
			dots = append(dots, c.localDot(r, r))
		}
		dots = c.allreduce(dots)
		mu, nu := dots[0], dots[1]
		var rr float64
		if len(dots) > 2 {
			rr = dots[2]
		}
		if !finite(mu, nu) || nu <= 0 || mu < 0 {
			if c.recovered(siteCurv, "μ=%v ν=%v at iteration %d", mu, nu, i) {
				continue
			}
			break
		}
		gamma, rho := mu/nu, 1.0
		if !first {
			den := 1 - (gamma/gammaPrev)*(mu/muPrev)*(1/rhoPrev)
			if den == 0 || !finite(den) {
				if c.recovered(siteRecur, "ρ recurrence denominator %v at iteration %d", den, i) {
					continue
				}
				break
			}
			rho = 1 / den
		}
		first = false

		// Three-term updates (BLAS1).
		c.threeTermUpdate(xNext, rho, x, -gamma, u, xPrev)
		c.threeTermUpdate(rNext, rho, r, gamma, w, rPrev)
		c.threeTermUpdate(uNext, rho, u, gamma, v, uPrev)
		xPrev, x, xNext = x, xNext, xPrev
		rPrev, r, rNext = r, rNext, rPrev
		uPrev, u, uNext = u, uNext, uPrev

		gammaPrev, muPrev, rhoPrev = gamma, mu, rho
		c.counted(i+1, 1)

		// rr is ‖r⁽ⁱ⁾‖² of the pre-update residual; the post-update norm
		// arrives next iteration. Accept the one-step lag (the s-step methods
		// lag by a whole block similarly): the recursive criterion stops one
		// step late, and the true-residual gate opens one step late.
		if _, _, stop := c.boundary(i+1, x, r, mu, rr); stop {
			break
		}
	}
	return x, nil
}
