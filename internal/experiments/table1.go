package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/perfmodel"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// Table1Row pairs an algorithm's Table 1 formulas with counts measured from
// an instrumented run.
type Table1Row struct {
	perfmodel.Cost
	// MeasuredMV and MeasuredPrec are per-s-steps averages from the run.
	MeasuredMV, MeasuredPrec float64
	// MeasuredReductionsPerS is the measured number of global collectives
	// per s steps.
	MeasuredReductionsPerS float64
}

// RunTable1 prints Table 1 and validates its communication-relevant columns
// against an instrumented solve on a 3D Poisson problem with a Jacobi
// preconditioner and Chebyshev basis (arbitrary-basis column).
func RunTable1(cfg Config, dim int) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	if dim <= 0 {
		dim = 24
	}
	a := sparse.Poisson3D(dim, dim, dim)
	st, err := newSetup(a, "jacobi", cfg.PrecondDegree)
	if err != nil {
		return nil, err
	}
	cl, err := dist.NewCluster(cfg.Machine, 1, a)
	if err != nil {
		// Too few rows for a full node: shrink the virtual node.
		m := cfg.Machine
		m.RanksPerNode = 8
		cl, err = dist.NewCluster(m, 1, a)
		if err != nil {
			return nil, err
		}
	}

	runs := map[perfmodel.Algorithm]solver.Method{
		perfmodel.PCG:     solver.PCG,
		perfmodel.SPCGMon: solver.SPCGMon,
		perfmodel.SPCG:    solver.SPCG,
		perfmodel.CAPCG:   solver.CAPCG,
		perfmodel.CAPCG3:  solver.CAPCG3,
	}
	var out []Table1Row
	for _, alg := range perfmodel.Algorithms() {
		cost, err := perfmodel.Table1(alg, cfg.S)
		if err != nil {
			return nil, err
		}
		opts := basisOpts(cfg, basis.Chebyshev, solver.RecursiveResidualMNorm)
		if alg == perfmodel.PCG || alg == perfmodel.SPCGMon {
			opts.Basis = basis.Monomial
		}
		opts.Tracker = dist.NewTracker(cl)
		_, _, stats := runOne(runs[alg], st, opts)
		row := Table1Row{Cost: cost}
		// Count validation does not need convergence — a partial run (e.g.
		// sPCGmon breaking down at large s) still exhibits the per-s-steps
		// operation pattern.
		if stats != nil && stats.Iterations >= cfg.S {
			perS := float64(cfg.S) / float64(stats.Iterations)
			row.MeasuredMV = float64(stats.MVProducts) * perS
			row.MeasuredPrec = float64(stats.PrecApplies) * perS
			row.MeasuredReductionsPerS = float64(stats.Allreduces) * perS
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderTable1 writes the closed-form table with measured validation columns.
func RenderTable1(w io.Writer, rows []Table1Row, s int) {
	fmt.Fprintf(w, "Computational cost per s = %d steps (paper Table 1) with measured validation\n", s)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Algorithm\t#MV+#prec\tlocal red.\tvec (mon)\t+arb\ttotal mon\ttotal arb\tmeas #MV/s\tmeas #prec/s\tmeas collectives/s")
	val := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%g", v)
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%g\t%g\t%s\t%g\t%s\t%.1f\t%.1f\t%.2f\n",
			r.Alg, r.MVAndPrec, r.LocalReductions, r.VectorOpsMonomial,
			val(r.VectorOpsArbitraryExtra), r.TotalMonomial, val(r.TotalArbitrary),
			r.MeasuredMV, r.MeasuredPrec, r.MeasuredReductionsPerS)
	}
	tw.Flush()
}

// ValidateTable1 checks that the measured per-s-steps MV counts and
// collective counts track the closed forms (within the once-per-solve
// initialization slack). It returns an error describing the first mismatch.
func ValidateTable1(rows []Table1Row, s int) error {
	for _, r := range rows {
		if r.MeasuredMV == 0 {
			return fmt.Errorf("experiments: %s produced no measurement", r.Alg)
		}
		slack := 2.0 * float64(s) / 10 // initialization amortized over ≥ 10·s/ s steps
		if math.Abs(r.MeasuredMV-float64(r.MVAndPrec)) > slack+1 {
			return fmt.Errorf("experiments: %s measured %.2f MVs per %d steps, formula says %d", r.Alg, r.MeasuredMV, s, r.MVAndPrec)
		}
		wantRed := float64(perfmodel.GlobalReductionsPerSSteps(r.Alg, s))
		if math.Abs(r.MeasuredReductionsPerS-wantRed) > slack+1 {
			return fmt.Errorf("experiments: %s measured %.2f collectives per %d steps, formula says %g", r.Alg, r.MeasuredReductionsPerS, s, wantRed)
		}
	}
	return nil
}
