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

// Fig1Series is the speedup-over-1-node-PCG series of one solver variant.
type Fig1Series struct {
	Solver  string // "PCG", "sPCG", "CA-PCG", "CA-PCG3"
	S       int    // 0 for PCG
	Speedup []float64
}

// Fig1Result holds the strong-scaling experiment of the paper's Figure 1.
type Fig1Result struct {
	GridDim     int
	NodeCounts  []int
	PCG1Node    float64 // reference time (the paper's 9.34126 s)
	Series      []Fig1Series
	PCGKneeNode int // node count past which PCG stops improving
}

// RunFig1 reproduces the strong-scaling experiment: a 7-point 3D Poisson
// matrix of size dim³ (paper: 256³), Jacobi preconditioner, Chebyshev basis,
// s ∈ sValues (paper: 5, 10, 15), node counts 1..maxNodes in powers of two,
// M-norm criterion with a 1e9 residual reduction.
//
// Each solver variant runs its numerics once (with a recording tracker) and
// is re-costed on every node count, which is exact: the event stream does
// not depend on the partition.
func RunFig1(cfg Config, dim, maxNodes int, sValues []int) (*Fig1Result, error) {
	cfg = cfg.withDefaults()
	if dim <= 0 {
		dim = 64
	}
	if maxNodes <= 0 {
		maxNodes = 128
	}
	if len(sValues) == 0 {
		sValues = []int{5, 10, 15}
	}
	a := sparse.Poisson3D(dim, dim, dim)
	// Random RHS (documented substitution: the paper's constant-solution
	// RHS puts the 1e9 reduction below sPCG's attainable-accuracy floor in
	// double precision; see DESIGN.md).
	st, err := newSetupRandomRHS(a, 20250705, "jacobi", cfg.PrecondDegree)
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
		return nil, fmt.Errorf("experiments: grid %d³ too small for even one node of %d ranks", dim, cfg.Machine.RanksPerNode)
	}
	clusters := make([]*dist.Cluster, len(nodeCounts))
	for i, nd := range nodeCounts {
		cl, err := dist.NewCluster(cfg.Machine, nd, a)
		if err != nil {
			return nil, err
		}
		clusters[i] = cl
	}

	res := &Fig1Result{GridDim: dim, NodeCounts: nodeCounts}

	// Reference: PCG numerics once, replayed on all node counts.
	runReplay := func(run solver.Method, s int) ([]float64, bool) {
		opts := solver.Options{
			S: s, Basis: basis.Chebyshev, Tol: cfg.Tol,
			MaxIterations: cfg.MaxIterations, Criterion: solver.RecursiveResidualMNorm,
			Spectrum: st.spectrum,
		}
		tr := dist.NewRecordingTracker(clusters[0])
		opts.Tracker = tr
		_, stats, err := run(st.a, st.m, st.b, opts)
		if err != nil || !stats.Converged {
			return nil, false
		}
		times := make([]float64, len(clusters))
		for i, cl := range clusters {
			times[i] = tr.ReplayOn(cl)
		}
		return times, true
	}

	pcgTimes, ok := runReplay(solver.PCG, 1)
	if !ok {
		return nil, fmt.Errorf("experiments: reference PCG did not converge")
	}
	res.PCG1Node = pcgTimes[0]
	pcgSeries := Fig1Series{Solver: "PCG", Speedup: make([]float64, len(nodeCounts))}
	best := 0.0
	for i, t := range pcgTimes {
		pcgSeries.Speedup[i] = res.PCG1Node / t
		if pcgSeries.Speedup[i] > best {
			best = pcgSeries.Speedup[i]
			res.PCGKneeNode = nodeCounts[i]
		}
	}
	res.Series = append(res.Series, pcgSeries)

	for _, s := range sValues {
		for _, ss := range sStepSolvers() {
			times, ok := runReplay(ss.Run, s)
			series := Fig1Series{Solver: ss.Name, S: s, Speedup: make([]float64, len(nodeCounts))}
			if ok {
				for i, t := range times {
					series.Speedup[i] = res.PCG1Node / t
				}
			}
			res.Series = append(res.Series, series)
		}
	}
	return res, nil
}

// RenderFig1 writes the speedup series as a table (one row per node count,
// matching the bar groups of the paper's figure).
func RenderFig1(w io.Writer, r *Fig1Result) {
	fmt.Fprintf(w, "Strong scaling, 7-pt 3D Poisson %d³ (Jacobi preconditioner, Chebyshev basis)\n", r.GridDim)
	fmt.Fprintf(w, "Reference: PCG on 1 node = %.6fs; PCG stops scaling at %d nodes\n", r.PCG1Node, r.PCGKneeNode)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "nodes")
	for _, s := range r.Series {
		if s.S == 0 {
			fmt.Fprintf(tw, "\t%s", s.Solver)
		} else {
			fmt.Fprintf(tw, "\t%s(s=%d)", s.Solver, s.S)
		}
	}
	fmt.Fprintln(tw)
	for i, nd := range r.NodeCounts {
		fmt.Fprintf(tw, "%d", nd)
		for _, s := range r.Series {
			if s.Speedup == nil || s.Speedup[i] == 0 {
				fmt.Fprint(tw, "\t-")
			} else {
				fmt.Fprintf(tw, "\t%.2f", s.Speedup[i])
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
