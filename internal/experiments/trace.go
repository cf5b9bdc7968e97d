package experiments

import (
	"fmt"
	"io"
	"math"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/obs"
	"spcg/internal/perfmodel"
	"spcg/internal/pool"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// TraceRow is one traced solve: the phase breakdown of a real shared-memory
// run plus the Table 1 collective-count prediction it is checked against.
type TraceRow struct {
	Alg       perfmodel.Algorithm `json:"alg"`
	Iters     int                 `json:"iterations"`
	Converged bool                `json:"converged"`
	// Breakdown is the measured per-phase decomposition (obs.Tracer).
	Breakdown obs.Breakdown `json:"breakdown"`
	// CollectivesPerS is the measured number of global reductions per s
	// steps; ExpectedPerS is the Table 1 closed form for the same quantity.
	CollectivesPerS float64 `json:"collectives_per_s"`
	ExpectedPerS    float64 `json:"expected_per_s"`
}

// RunTrace solves one 3D Poisson problem (Jacobi preconditioner; Chebyshev
// basis for sPCG) with PCG and sPCG under a phase tracer and returns the
// per-phase breakdowns, each annotated with the Table 1 collective-count
// prediction. The runs are real shared-memory solves — phase times are wall
// time on this machine — with a cost-model tracker attached so collectives
// and halo exchanges are counted too.
func RunTrace(cfg Config, dim int) ([]TraceRow, error) {
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
		m := cfg.Machine
		m.RanksPerNode = 8
		cl, err = dist.NewCluster(m, 1, a)
		if err != nil {
			return nil, err
		}
	}

	runs := []struct {
		alg perfmodel.Algorithm
		run solver.Method
		bt  basis.Type
	}{
		{perfmodel.PCG, solver.PCG, basis.Monomial},
		{perfmodel.SPCG, solver.SPCG, basis.Chebyshev},
	}
	var out []TraceRow
	for _, r := range runs {
		opts := basisOpts(cfg, r.bt, solver.RecursiveResidualMNorm)
		opts.Tracker = dist.NewTracker(cl)
		opts.Trace = obs.New(0)
		// Mirror the kernel engine's dispatches into the same trace; the
		// hook is process-global, so scope it to this run.
		pool.SetTracer(opts.Trace)
		iters, converged, stats := runOne(r.run, st, opts)
		pool.SetTracer(nil)
		if stats == nil {
			return nil, fmt.Errorf("experiments: trace: %s returned no stats", r.alg)
		}
		row := TraceRow{
			Alg:          r.alg,
			Iters:        iters,
			Converged:    converged,
			Breakdown:    opts.Trace.Breakdown(),
			ExpectedPerS: float64(perfmodel.GlobalReductionsPerSSteps(r.alg, cfg.S)),
		}
		if stats.Iterations > 0 {
			row.CollectivesPerS = float64(stats.Allreduces) * float64(cfg.S) / float64(stats.Iterations)
		}
		out = append(out, row)
	}
	return out, nil
}

// ValidateTrace checks each traced run's measured collectives per s steps
// against the Table 1 closed form, with the same once-per-solve
// initialization slack ValidateTable1 uses. It also requires that every run
// recorded timed spans — a trace with no phases means the instrumentation
// came unthreaded.
func ValidateTrace(rows []TraceRow, s int) error {
	for _, r := range rows {
		if len(r.Breakdown.Phases) == 0 || r.Breakdown.TotalSeconds <= 0 {
			return fmt.Errorf("experiments: trace: %s recorded no timed phases", r.Alg)
		}
		slack := 2.0*float64(s)/10 + 1
		if math.Abs(r.CollectivesPerS-r.ExpectedPerS) > slack {
			return fmt.Errorf("experiments: trace: %s measured %.2f collectives per %d steps, Table 1 says %g",
				r.Alg, r.CollectivesPerS, s, r.ExpectedPerS)
		}
	}
	return nil
}

// RenderTrace writes each run's phase table with its collective-count check.
func RenderTrace(w io.Writer, rows []TraceRow, s int) {
	for i, r := range rows {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s: %d iterations (converged=%v), %.2f collectives per s=%d steps (Table 1: %g)\n",
			r.Alg, r.Iters, r.Converged, r.CollectivesPerS, s, r.ExpectedPerS)
		r.Breakdown.Render(w)
	}
}
