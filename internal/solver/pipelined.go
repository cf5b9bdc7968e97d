package solver

import (
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// PipelinedPCG solves A·x = b with the communication-hiding pipelined PCG of
// Ghysels & Vanroose (2014) — the state-of-the-art class the paper's
// introduction explicitly defers comparing against ("we leave the comparison
// of s-step methods and state-of-the-art pipelined methods for future
// work"). This implementation, together with experiments.RunPipeline,
// carries out that comparison on the modeled cluster.
//
// Pipelined PCG fuses both inner products of an iteration into a single
// non-blocking allreduce and overlaps its completion with the next
// preconditioner application and matrix-vector product. The extra recurrences
// (w = A·u, m = M⁻¹w, n = A·m, and the derived s, q, z updates) cost more
// local vector work than PCG and one extra SpMV+preconditioner pair per
// iteration is replaced by recurrences — but rounding error accumulates in
// the longer recurrence chains, which is why its residual can stagnate
// earlier than PCG's (Cools et al. 2019 propose corrected variants).
func PipelinedPCG(a sparse.Matrix, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(pipelined, a, m, b, opts)
}

func pipelined(c *ctx) ([]float64, error) {
	n, stats := c.n, c.stats
	x, r := c.x, c.residual0()
	u := make([]float64, n)
	w := make([]float64, n)
	mv := make([]float64, n) // m = M⁻¹w
	nv := make([]float64, n) // n = A·m
	z := make([]float64, n)
	q := make([]float64, n)
	s := make([]float64, n)
	p := make([]float64, n)

	c.applyM(u, r)
	c.spmv(w, u)

	gamma := c.dot(r, u)
	if !finite(gamma) || gamma < 0 {
		c.breakdown(siteRho, "initial rᵀM⁻¹r = %v", gamma)
		return x, nil
	}
	initial, ok := c.initialCriterion(r, gamma)
	if !ok || c.done(initial) {
		return x, nil
	}

	var alpha, gammaOld float64
	for i := 0; i < c.opts.MaxIterations; i++ {
		if c.cancelled() {
			return x, ErrCancelled
		}
		// Local dots for γ = (r,u), δ = (w,u) — and ‖r‖² when the 2-norm
		// criterion is active — then ONE non-blocking allreduce whose
		// completion hides behind the next M⁻¹w and A·m.
		dots := []float64{c.localDot(r, u), c.localDot(w, u)}
		if c.opts.Criterion == RecursiveResidual2Norm {
			dots = append(dots, c.localDot(r, r))
		}
		dots = c.allreduceOverlapped(dots)
		gammaNew, delta := dots[0], dots[1]
		var rr float64
		if len(dots) > 2 {
			rr = dots[2]
		}

		// Overlapped work: m = M⁻¹w, n = A·m.
		c.applyM(mv, w)
		c.spmv(nv, mv)

		if !finite(gammaNew, delta) || gammaNew < 0 {
			c.breakdown(siteRho, "γ=%v δ=%v at iteration %d", gammaNew, delta, i)
			break
		}
		var beta float64
		if i > 0 {
			beta = gammaNew / gammaOld
			den := delta - beta*gammaNew/alpha
			if den == 0 || !finite(den) {
				c.breakdown(siteRecur, "pipelined α denominator %v at iteration %d", den, i)
				break
			}
			alpha = gammaNew / den
		} else {
			if delta <= 0 {
				c.breakdown(siteCurv, "wᵀu = %v at iteration 0", delta)
				break
			}
			alpha = gammaNew / delta
		}

		// Recurrence updates (8 fused BLAS1 updates).
		for j := 0; j < n; j++ {
			z[j] = nv[j] + beta*z[j]
			q[j] = mv[j] + beta*q[j]
			s[j] = w[j] + beta*s[j]
			p[j] = u[j] + beta*p[j]
			x[j] += alpha * p[j]
			r[j] -= alpha * s[j]
			u[j] -= alpha * q[j]
			w[j] -= alpha * z[j]
		}
		c.tr.VectorOp(16*float64(n), 10*8*float64(n))

		gammaOld = gammaNew
		stats.Iterations = i + 1
		stats.OuterIterations = i + 1

		// rr lags one iteration (pre-update ‖r‖), like PCG3.
		if c.done(c.critValue(x, gammaNew, rr)) {
			break
		}
	}
	return x, nil
}
