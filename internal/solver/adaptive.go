package solver

import (
	"math"

	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// SPCGAdaptive runs SPCG with an adaptive block size in the spirit of
// Carson's adaptive s-step CG [paper ref. 2]: it starts at Options.S and,
// whenever a phase breaks down or stagnates (no convergence progress), it
// resumes from the current iterate with s halved. At s = 1 the method is
// numerically plain PCG, so the cascade always terminates with PCG-grade
// robustness while keeping the largest stable block size for the easy part
// of the convergence history.
//
// The cascade is one run: every phase measures the criterion against the
// first phase's initial value, and Stats covers the whole run. Iterations
// counts PCG-equivalent steps across the phases and Restarts counts the s
// reductions.
func SPCGAdaptive(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(adaptive, a, m, b, opts)
}

// adaptive runs the spcg body, or pcg at s = 1, on the context until a phase
// converges, is cancelled or spends the iteration cap; each phase continues
// from the iterate the last one left in c.x.
func adaptive(c *ctx) ([]float64, error) {
	budget := c.opts.MaxIterations
	for {
		alg := spcg
		if c.opts.S <= 1 {
			alg = pcg
		}
		x, err := alg(c)
		st := c.stats
		if err != nil || st.Converged || c.opts.S <= 1 || st.Iterations >= budget {
			return x, err
		}
		c.iterBase, c.outerBase = st.Iterations, st.OuterIterations
		c.gainRel = math.Inf(1) // each phase gets its own stagnation window
		c.opts.MaxIterations = budget - st.Iterations
		c.opts.S /= 2
		st.Restarts++
	}
}
