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
	q := startPCG(c)
	for i := 0; q != nil && i < c.opts.MaxIterations; i++ {
		if c.cancelled() {
			return c.x, ErrCancelled
		}
		c.spmv(q.s, q.p)
		if q.step(i) {
			break
		}
	}
	return c.x, nil
}

// pcgRun is one PCG recurrence on its context: pcg advances one, BatchPCG
// several in lockstep. Each iteration opens with the product s = A·p, which
// the caller forms, and continues with step.
type pcgRun struct {
	c             *ctx
	x, r, u, p, s []float64
	rho           float64 // rᵀM⁻¹r
}

// startPCG is PCG's prologue: r⁰ = b − A·x⁰, u⁰ = M⁻¹r⁰, p⁰ = u⁰, ρ, the
// check of x⁰ and the detection arm. It returns nil when the run already
// ended: x⁰ solves the system, or ρ broke down.
func startPCG(c *ctx) *pcgRun {
	n := c.n
	q := &pcgRun{
		c: c, x: c.x, r: c.residual0(make([]float64, n)),
		u: make([]float64, n), p: make([]float64, n), s: make([]float64, n),
	}
	c.applyM(q.u, q.r)
	q.rho = c.dot(q.r, q.u)
	if !finite(q.rho) || q.rho < 0 {
		c.breakdown(siteRho, "initial rᵀM⁻¹r = %v (preconditioner not SPD?)", q.rho)
		return nil
	}
	copy(q.p, q.u)

	// Check the initial state (x⁰ may already solve the system).
	initial, ok := c.initialCriterion(q.r, q.rho)
	if !ok || c.done(initial) {
		return nil
	}
	// Detection (opt-in) resumes a rollback as at the start: u = M⁻¹r, p = u.
	if c.opts.DetectEvery > 0 {
		c.arm(q.x, q.r, func(x0, r0 []float64) {
			copy(q.x, x0)
			copy(q.r, r0)
			c.applyM(q.u, q.r)
			copy(q.p, q.u)
			q.rho = c.dot(q.r, q.u)
		})
	}
	return q
}

// step is iteration i of PCG once s holds A·p. It reports whether the run
// ended: converged, or broken down with no rollback left.
func (q *pcgRun) step(i int) (stop bool) {
	c, x, r, u, p, s := q.c, q.x, q.r, q.u, q.p, q.s
	den := c.dot(p, s) // global reduction 1
	if !finite(den) || den <= 0 {
		return !c.recovered(siteCurv, "pᵀAp = %v at iteration %d", den, i)
	}
	alpha := q.rho / den
	c.axpy(alpha, p, x)
	c.axpy(-alpha, s, r)
	c.inj.CorruptVector(r)
	c.applyM(u, r)

	// Global reduction 2: rᵀu (and ‖r‖² fused when the criterion needs it).
	rhoNew, rr := c.residualDots(r, u, false)
	if !finite(rhoNew) || rhoNew < 0 {
		return !c.recovered(siteRho, "rᵀM⁻¹r = %v at iteration %d", rhoNew, i)
	}
	beta := rhoNew / q.rho
	q.rho = rhoNew
	c.xpay(p, u, beta, p)

	c.counted(i+1, 1)
	_, _, stop = c.boundary(i+1, x, r, q.rho, rr)
	return stop
}
