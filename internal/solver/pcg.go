package solver

import (
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// PCG solves A·x = b with the standard Preconditioned Conjugate Gradient
// method (paper Algorithm 1). It performs two global reductions per
// iteration — the scalability bottleneck the s-step variants remove.
func PCG(a sparse.Matrix, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(pcg, a, m, b, opts)
}

func pcg(c *ctx) ([]float64, error) {
	n, stats := c.n, c.stats
	x, r := c.x, c.residual0()
	u := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)

	// u⁰ = M⁻¹r⁰, p⁰ = u⁰.
	c.applyM(u, r)
	rho := c.dot(r, u)
	if !finite(rho) || rho < 0 {
		c.breakdown(siteRho, "initial rᵀM⁻¹r = %v (preconditioner not SPD?)", rho)
		return x, nil
	}
	copy(p, u)

	// Check the initial state (x⁰ may already solve the system).
	initial, ok := c.initialCriterion(r, rho)
	if !ok || c.done(initial) {
		return x, nil
	}
	// Fault detection/recovery (opt-in): verified initial state is the first
	// checkpoint, so a rollback is always possible.
	g := newGuard(c)
	if g != nil {
		g.checkpoint(x, r, p, rho)
		c.rollback = func() bool { return g.restore(x, r, p, &rho) }
	}

	for i := 0; i < c.opts.MaxIterations; i++ {
		if c.cancelled() {
			return x, ErrCancelled
		}
		c.spmvNext(s, p)
		den := c.dot(p, s) // global reduction 1
		if !finite(den) || den <= 0 {
			if c.recovered(siteCurv, "pᵀAp = %v at iteration %d", den, i) {
				continue
			}
			break
		}
		alpha := rho / den
		c.axpy(alpha, p, x)
		c.axpy(-alpha, s, r)
		c.inj.CorruptVector(r)
		c.applyM(u, r)

		// Global reduction 2: rᵀu (and ‖r‖² fused when the criterion needs it).
		rhoNew, rr := c.residualDots(r, u, false)
		if !finite(rhoNew) || rhoNew < 0 {
			if c.recovered(siteRho, "rᵀM⁻¹r = %v at iteration %d", rhoNew, i) {
				continue
			}
			break
		}
		beta := rhoNew / rho
		rho = rhoNew
		c.xpay(p, u, beta, p)
		// p is final and s is free: an explicit residual below (detection
		// probe, true-residual criterion) computes A·p in its pass.
		c.offerNext(s, p)

		stats.Iterations = i + 1
		stats.OuterIterations = i + 1
		if g.due(i + 1) {
			if g.corrupted(x, r) {
				if c.recovered(siteRollback, "rollback budget (%d) exhausted — persistent corruption", g.maxRollbacks) {
					continue
				}
				break
			}
			g.checkpoint(x, r, p, rho)
		}
		if c.done(c.critValue(x, rho, rr)) {
			break
		}
	}
	return x, nil
}
