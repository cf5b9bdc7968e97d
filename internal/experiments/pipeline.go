package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// PipelineResult holds the s-step vs pipelined comparison that the paper
// defers to future work (§1: "we leave the comparison of s-step methods and
// state-of-the-art pipelined methods for future work").
type PipelineResult struct {
	GridDim    int
	NodeCounts []int
	// Speedup[solver][i] over 1-node PCG, in solver order below.
	Solvers []string
	Speedup [][]float64
	// Iterations per solver (node-count independent).
	Iterations []int
}

// RunPipeline runs the future-work experiment: standard PCG vs pipelined PCG
// (Ghysels–Vanroose) vs sPCG (s=10, Chebyshev basis) on the Figure 1 problem
// and machine model.
func RunPipeline(cfg Config, dim, maxNodes int) (*PipelineResult, error) {
	cfg = cfg.withDefaults()
	if dim <= 0 {
		dim = 64
	}
	if maxNodes <= 0 {
		maxNodes = 128
	}
	a := sparse.Poisson3D(dim, dim, dim)
	st, err := newSetupRandomRHS(a, 31337, "jacobi", cfg.PrecondDegree)
	if err != nil {
		return nil, err
	}
	var nodeCounts []int
	for nd := 1; nd <= maxNodes; nd *= 2 {
		if nd*cfg.Machine.RanksPerNode > a.Dim() {
			break
		}
		nodeCounts = append(nodeCounts, nd)
	}
	if len(nodeCounts) == 0 {
		return nil, fmt.Errorf("experiments: grid %d³ too small for one node of %d ranks", dim, cfg.Machine.RanksPerNode)
	}
	clusters := make([]*dist.Cluster, len(nodeCounts))
	for i, nd := range nodeCounts {
		cl, err := dist.NewCluster(cfg.Machine, nd, a)
		if err != nil {
			return nil, err
		}
		clusters[i] = cl
	}

	res := &PipelineResult{GridDim: dim, NodeCounts: nodeCounts,
		Solvers: []string{"PCG", "PipePCG", "sPCG(s=10)"}}
	runs := []solver.Method{solver.PCG, solver.PipelinedPCG, solver.SPCG}
	var ref float64
	for si, run := range runs {
		opts := solver.Options{
			S: 10, Basis: basis.Chebyshev, Tol: cfg.Tol,
			MaxIterations: cfg.MaxIterations, Criterion: solver.RecursiveResidualMNorm,
			Spectrum: st.spectrum,
		}
		tr := dist.NewRecordingTracker(clusters[0])
		opts.Tracker = tr
		_, stats, err := run(st.a, st.m, st.b, opts)
		if err != nil {
			return nil, err
		}
		if !stats.Converged {
			return nil, fmt.Errorf("experiments: %s did not converge (%v)", res.Solvers[si], stats.Breakdown)
		}
		res.Iterations = append(res.Iterations, stats.Iterations)
		times := make([]float64, len(clusters))
		for i, cl := range clusters {
			times[i] = tr.ReplayOn(cl)
		}
		if si == 0 {
			ref = times[0]
		}
		speed := make([]float64, len(times))
		for i, t := range times {
			speed[i] = ref / t
		}
		res.Speedup = append(res.Speedup, speed)
	}
	return res, nil
}

// RenderPipeline writes the comparison table.
func RenderPipeline(w io.Writer, r *PipelineResult) {
	fmt.Fprintf(w, "Future-work comparison (paper §1): s-step vs pipelined PCG, 7-pt 3D Poisson %d³\n", r.GridDim)
	fmt.Fprint(w, "iterations:")
	for i, s := range r.Solvers {
		fmt.Fprintf(w, " %s=%d", s, r.Iterations[i])
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "nodes")
	for _, s := range r.Solvers {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	for i, nd := range r.NodeCounts {
		fmt.Fprintf(tw, "%d", nd)
		for si := range r.Solvers {
			fmt.Fprintf(tw, "\t%.2f", r.Speedup[si][i])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, "(speedup over 1-node PCG; pipelined PCG hides one collective per")
	fmt.Fprintln(w, " iteration behind overlapped work, sPCG amortizes one over s steps)")
}
