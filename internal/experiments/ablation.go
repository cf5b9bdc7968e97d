package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"spcg/internal/basis"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// AblationResult collects the design-choice studies DESIGN.md calls out:
// basis type × s sweep, Leja ordering, moment-Hankel vs direct Gram, and
// preconditioner degree.
type AblationResult struct {
	// BasisSweep[basis][i] is the iteration count of sPCG at BlockSizes[i]
	// (0 = no convergence).
	BlockSizes []int
	BasisSweep map[string][]int
	// LejaIters/NaturalIters: sPCG Newton-basis iterations with
	// Leja-ordered vs naturally-ordered shifts at the largest s.
	LejaIters, NaturalIters int
	LejaOk, NaturalOk       bool
	// MomentIters/DirectIters: sPCGmon (moment Hankel) vs sPCG-monomial
	// (direct Gram) at moderate s; MomentResidual/DirectResidual are the
	// final true residuals.
	MomentIters, DirectIters       int
	MomentOk, DirectOk             bool
	MomentResidual, DirectResidual float64
	// Degree sweep: PCG and sPCG iterations by Chebyshev preconditioner
	// degree (the paper pairs the cheap degrees with s-step methods because
	// they add no global synchronization).
	Degrees               []int
	DegreePCG, DegreeSPCG []int
}

// RunAblation performs the ablations on a variable-coefficient 2D problem
// hard enough to separate the variants.
func RunAblation(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	a := sparse.VarCoeff2D(64, 64, 3, 1234)
	st, err := newSetup(a, "jacobi", cfg.PrecondDegree)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{
		BlockSizes: []int{2, 5, 10, 15, 20},
		BasisSweep: map[string][]int{},
	}

	// Basis × s sweep on sPCG.
	for _, bt := range []basis.Type{basis.Monomial, basis.Newton, basis.Chebyshev} {
		series := make([]int, len(res.BlockSizes))
		for i, s := range res.BlockSizes {
			opts := basisOpts(cfg, bt, solver.TrueResidual2Norm)
			opts.S = s
			iters, ok, _ := runOne(solver.SPCG, st, opts)
			if ok {
				series[i] = iters
			}
		}
		res.BasisSweep[bt.String()] = series
	}

	// Leja vs natural shift ordering at s = 15.
	s := 15
	{
		opts := basisOpts(cfg, basis.Newton, solver.TrueResidual2Norm)
		opts.S = s
		res.LejaIters, res.LejaOk, _ = runOne(solver.SPCG, st, opts)

		// Natural (ascending) shifts: bypass NewtonParams' Leja ordering.
		shifts := append([]float64(nil), st.spectrum.Ritz...)
		sort.Float64s(shifts)
		theta := make([]float64, s)
		for l := range theta {
			theta[l] = shifts[l%len(shifts)]
		}
		scale := (st.spectrum.LambdaMax - st.spectrum.LambdaMin) / 4
		params := &basis.Params{Type: basis.Newton, Theta: theta, Gamma: fill(s, scale), Mu: make([]float64, s-1)}
		opts = basisOpts(cfg, basis.Newton, solver.TrueResidual2Norm)
		opts.S = s
		opts.BasisParams = params
		res.NaturalIters, res.NaturalOk, _ = runOne(solver.SPCG, st, opts)
	}

	// sPCGmon (moments) vs sPCG monomial (direct Gram) at s = 6.
	{
		opts := basisOpts(cfg, basis.Monomial, solver.TrueResidual2Norm)
		opts.S = 6
		var stats *solver.Stats
		res.MomentIters, res.MomentOk, stats = runOne(solver.SPCGMon, st, opts)
		if stats != nil {
			res.MomentResidual = stats.TrueRelResidual
		}
		res.DirectIters, res.DirectOk, stats = runOne(solver.SPCG, st, opts)
		if stats != nil {
			res.DirectResidual = stats.TrueRelResidual
		}
	}

	// Chebyshev preconditioner degree sweep (fresh setups: the
	// preconditioner changes the operator the basis sees).
	res.Degrees = []int{1, 2, 3, 5, 8}
	for _, deg := range res.Degrees {
		stDeg, err := newSetup(a, "chebyshev", deg)
		if err != nil {
			return nil, err
		}
		opts := basisOpts(cfg, basis.Chebyshev, solver.TrueResidual2Norm)
		iters, ok, _ := runOne(solver.PCG, stDeg, opts)
		if !ok {
			iters = 0
		}
		res.DegreePCG = append(res.DegreePCG, iters)
		iters, ok, _ = runOne(solver.SPCG, stDeg, opts)
		if !ok {
			iters = 0
		}
		res.DegreeSPCG = append(res.DegreeSPCG, iters)
	}

	return res, nil
}

// RenderAblation writes the ablation results.
func RenderAblation(w io.Writer, r *AblationResult) {
	fmt.Fprintln(w, "Ablation: sPCG iterations by basis type and s (VarCoeff2D 64×64, Jacobi, true-residual 1e-9)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "basis")
	for _, s := range r.BlockSizes {
		fmt.Fprintf(tw, "\ts=%d", s)
	}
	fmt.Fprintln(tw)
	for _, name := range []string{"monomial", "newton", "chebyshev"} {
		fmt.Fprint(tw, name)
		for _, it := range r.BasisSweep[name] {
			fmt.Fprintf(tw, "\t%s", hyph(it, it > 0))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintf(w, "\nNewton shifts at s=15: Leja %s vs natural %s iterations\n",
		hyph(r.LejaIters, r.LejaOk), hyph(r.NaturalIters, r.NaturalOk))
	fmt.Fprintf(w, "Scalar Work at s=6 (monomial): moment-Hankel %s iters (true rel. res. %.2e) vs direct Gram %s iters (%.2e)\n",
		hyph(r.MomentIters, r.MomentOk), r.MomentResidual, hyph(r.DirectIters, r.DirectOk), r.DirectResidual)
	fmt.Fprint(w, "\nChebyshev preconditioner degree sweep (iterations):\ndegree")
	for _, d := range r.Degrees {
		fmt.Fprintf(w, "\t%d", d)
	}
	fmt.Fprint(w, "\nPCG   ")
	for _, it := range r.DegreePCG {
		fmt.Fprintf(w, "\t%s", hyph(it, it > 0))
	}
	fmt.Fprint(w, "\nsPCG  ")
	for _, it := range r.DegreeSPCG {
		fmt.Fprintf(w, "\t%s", hyph(it, it > 0))
	}
	fmt.Fprintln(w)
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
