package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/perfmodel"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// PredictRow compares the Table-1-based closed-form time model against the
// event-level tracked simulation for one algorithm at one node count.
type PredictRow struct {
	Alg       perfmodel.Algorithm
	Nodes     int
	Predicted float64 // closed-form seconds per s steps
	Measured  float64 // tracked simulation seconds per s steps
	Ratio     float64
}

// RunPredict cross-validates perfmodel.Predict against the instrumented
// solvers on a 3D Poisson problem with a Jacobi preconditioner: both views
// derive from the same machine model, so per-s-steps times should agree
// within the model's granularity (the closed forms ignore once-per-solve
// setup and round payloads).
func RunPredict(cfg Config, dim int, nodeCounts []int) ([]PredictRow, error) {
	cfg = cfg.withDefaults()
	if dim <= 0 {
		dim = 32
	}
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 4, 16}
	}
	a := sparse.Poisson3D(dim, dim, dim)
	st, err := newSetupRandomRHS(a, 99, "jacobi", cfg.PrecondDegree)
	if err != nil {
		return nil, err
	}
	runs := map[perfmodel.Algorithm]solver.Method{
		perfmodel.PCG:     solver.PCG,
		perfmodel.SPCGMon: solver.SPCGMon,
		perfmodel.SPCG:    solver.SPCG,
		perfmodel.CAPCG:   solver.CAPCG,
		perfmodel.CAPCG3:  solver.CAPCG3,
	}
	var out []PredictRow
	for _, nodes := range nodeCounts {
		cl, err := dist.NewCluster(cfg.Machine, nodes, a)
		if err != nil {
			return nil, err
		}
		precFlops := float64(a.Dim()) // Jacobi
		for _, alg := range perfmodel.Algorithms() {
			pred, err := perfmodel.Predict(alg, cfg.S, cl, precFlops, 0, alg != perfmodel.PCG && alg != perfmodel.SPCGMon)
			if err != nil {
				return nil, err
			}
			opts := basisOpts(cfg, basis.Chebyshev, solver.RecursiveResidualMNorm)
			if alg == perfmodel.PCG || alg == perfmodel.SPCGMon {
				opts.Basis = basis.Monomial
			}
			opts.Tracker = dist.NewTracker(cl)
			_, _, stats := runOne(runs[alg], st, opts)
			row := PredictRow{Alg: alg, Nodes: nodes, Predicted: pred.Total}
			if stats != nil && stats.Iterations >= cfg.S {
				row.Measured = stats.SimTime * float64(cfg.S) / float64(stats.Iterations)
				row.Ratio = row.Measured / row.Predicted
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// RenderPredict writes the comparison.
func RenderPredict(w io.Writer, rows []PredictRow, s int) {
	fmt.Fprintf(w, "Closed-form (Table 1 based) vs event-level simulated time per s = %d steps\n", s)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Algorithm\tnodes\tpredicted\tsimulated\tsim/pred")
	for _, r := range rows {
		if r.Measured == 0 {
			fmt.Fprintf(tw, "%s\t%d\t%.3gs\t-\t-\n", r.Alg, r.Nodes, r.Predicted)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3gs\t%.3gs\t%.2f\n", r.Alg, r.Nodes, r.Predicted, r.Measured, r.Ratio)
	}
	tw.Flush()
}
