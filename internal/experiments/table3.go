package experiments

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/solver"
	"spcg/internal/suite"
)

// Table3Row holds one matrix's modeled runtimes: PCG's time and each s-step
// method's speedup over it, for both preconditioner columns of the paper's
// Table 3 (Chebyshev-precondition/2-norm and Jacobi/M-norm). Speedup 0 means
// the method did not converge ("−").
type Table3Row struct {
	Name string
	// Cheb* use the Chebyshev(3) preconditioner with the recursive 2-norm
	// criterion; Jac* use Jacobi with the recursive M-norm criterion.
	ChebPCGTime                     float64
	ChebSPCG, ChebCAPCG, ChebCAPCG3 float64
	JacPCGTime                      float64
	JacSPCG, JacCAPCG, JacCAPCG3    float64
}

// RunTable3 reproduces Table 3 over the given problems (paper: the seven
// largest converging matrices of suite.Table3), s = 10, Chebyshev basis,
// four nodes, both preconditioners.
func RunTable3(cfg Config, problems []suite.Problem, nodes int) ([]Table3Row, error) {
	cfg = cfg.withDefaults()
	if nodes <= 0 {
		nodes = 4 // the paper's 4 nodes × 128 ranks = 512 processes
	}
	return forEachRow(problems, func(p suite.Problem) (Table3Row, error) {
		place := slices.Index(suite.Table3Names(), p.Name) // seeds the RHS: a row reads the same in any subset
		if place < 0 {
			return Table3Row{}, fmt.Errorf("%s is not a Table 3 matrix", p.Name)
		}
		a := p.Build(cfg.Scale)
		cl, err := dist.NewCluster(cfg.Machine, nodes, a)
		if err != nil {
			return Table3Row{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		row := Table3Row{Name: p.Name}

		type variant struct {
			prec    string
			crit    solver.Criterion
			pcgTime *float64
			speeds  []*float64
		}
		variants := []variant{
			{"chebyshev", solver.RecursiveResidual2Norm, &row.ChebPCGTime, []*float64{&row.ChebSPCG, &row.ChebCAPCG, &row.ChebCAPCG3}},
			{"jacobi", solver.RecursiveResidualMNorm, &row.JacPCGTime, []*float64{&row.JacSPCG, &row.JacCAPCG, &row.JacCAPCG3}},
		}
		for _, v := range variants {
			// Random RHS: same substitution as RunFig1 (see DESIGN.md).
			st, err := newSetupRandomRHS(a, uint64(1e9)+uint64(place), v.prec, cfg.PrecondDegree)
			if err != nil {
				return Table3Row{}, fmt.Errorf("%s: %w", p.Name, err)
			}
			opts := basisOpts(cfg, basis.Chebyshev, v.crit)
			opts.Tracker = dist.NewTracker(cl)
			_, ok, stats := runOne(solver.PCG, st, opts)
			_ = ok
			if !stats.Converged {
				// PCG itself failing would make speedups meaningless; mark
				// with zero time and move on.
				continue
			}
			*v.pcgTime = stats.SimTime
			for i, ss := range sStepSolvers() {
				o := basisOpts(cfg, basis.Chebyshev, v.crit)
				o.Tracker = dist.NewTracker(cl)
				_, _, sst := runOne(ss.Run, st, o)
				if sst != nil && sst.Converged && sst.SimTime > 0 {
					*v.speeds[i] = stats.SimTime / sst.SimTime
				}
			}
		}
		cfg.progressf("table3: %s done", p.Name)
		return row, nil
	})
}

// RenderTable3 writes the rows in the paper's layout.
func RenderTable3(w io.Writer, rows []Table3Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tChebyshev preconditioner (deg 3)\t\t\t\tJacobi preconditioner\t\t\t")
	fmt.Fprintln(tw, "Matrix\tPCG\tsPCG\tCA-PCG\tCA-PCG3\tPCG\tsPCG\tCA-PCG\tCA-PCG3")
	sp := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", v)
	}
	tm := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3fs", v)
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Name, tm(r.ChebPCGTime), sp(r.ChebSPCG), sp(r.ChebCAPCG), sp(r.ChebCAPCG3),
			tm(r.JacPCGTime), sp(r.JacSPCG), sp(r.JacCAPCG), sp(r.JacCAPCG3))
	}
	tw.Flush()
}
