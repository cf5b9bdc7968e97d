package experiments

import (
	"fmt"
	"io"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/fault"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// FaultSoftRow reports one (solver, soft-error rate) cell of the fault sweep:
// the same seeded corruption stream applied to an unprotected and a protected
// run, judged by the *true* relative residual (silent corruption leaves the
// recursive criterion looking healthy — exactly the failure mode detection
// exists for).
type FaultSoftRow struct {
	Solver string
	Rate   float64 // per-SpMV corruption probability
	// Injected counts the corruption events actually drawn.
	Injected int
	// UnprotRel / ProtRel are the final true relative residuals.
	UnprotRel, ProtRel float64
	// UnprotOK / ProtOK report true-residual convergence to cfg.Tol.
	UnprotOK, ProtOK bool
	// Detected/Rollbacks/Iterations describe the protected run.
	Detected, Rollbacks, Iterations int
}

// FaultCommRow reports one communication-failure probability of the sweep:
// identical numerics, increasing modeled time as the fault model charges
// timeout + exponential-backoff retries.
type FaultCommRow struct {
	Prob       float64
	Retried    int     // messages retried over the whole solve
	CleanTime  float64 // modeled time without faults (s)
	FaultyTime float64 // modeled time with faults (s)
}

// FaultsResult aggregates the fault-tolerance experiment.
type FaultsResult struct {
	Dim  int
	S    int
	Soft []FaultSoftRow
	Comm []FaultCommRow
}

// RunFaults sweeps soft-error rates over PCG and sPCG (unprotected vs
// detection+rollback) and communication-failure probabilities over the cost
// model, on a 2D Poisson problem of the given grid dimension. rates and
// probs may be nil for the defaults.
func RunFaults(cfg Config, dim int, rates, probs []float64) (*FaultsResult, error) {
	cfg = cfg.withDefaults()
	if dim <= 0 {
		dim = 20
	}
	if rates == nil {
		rates = []float64{0.05, 0.1, 0.15}
	}
	if probs == nil {
		probs = []float64{0.05, 0.1, 0.2}
	}
	a := sparse.Poisson2D(dim, dim)
	st, err := newSetup(a, "jacobi", cfg.PrecondDegree)
	if err != nil {
		return nil, err
	}
	res := &FaultsResult{Dim: dim, S: cfg.S}

	solvers := []struct {
		name        string
		run         solver.Method
		detectEvery int // PCG probes every s steps; s-step probes every outer
	}{
		{"PCG", solver.PCG, cfg.S},
		{"sPCG", solver.SPCG, 1},
	}
	// The seed is fixed so the sweep (and its test) is reproducible; it was
	// chosen so every default rate draws at least one corruption on the
	// default problem.
	const seed = 1
	for _, sv := range solvers {
		for _, rate := range rates {
			base := basisOpts(cfg, basis.Chebyshev, solver.RecursiveResidualMNorm)
			base.Spectrum = st.spectrum

			unprot := base
			unprot.Injector = fault.New(seed, fault.Config{SpMVCorruptProb: rate})
			_, us, err := sv.run(st.a, st.m, st.b, unprot)
			if err != nil {
				return nil, err
			}

			prot := base
			prot.Injector = fault.New(seed, fault.Config{SpMVCorruptProb: rate})
			prot.DetectEvery = sv.detectEvery
			_, ps, err := sv.run(st.a, st.m, st.b, prot)
			if err != nil {
				return nil, err
			}

			row := FaultSoftRow{
				Solver:     sv.name,
				Rate:       rate,
				Injected:   unprot.Injector.Counts().Total(),
				UnprotRel:  us.TrueRelResidual,
				UnprotOK:   us.TrueRelResidual <= cfg.Tol,
				ProtRel:    ps.TrueRelResidual,
				ProtOK:     ps.Converged && ps.TrueRelResidual <= 10*cfg.Tol,
				Detected:   ps.DetectedFaults,
				Rollbacks:  ps.Rollbacks,
				Iterations: ps.Iterations,
			}
			res.Soft = append(res.Soft, row)
			cfg.progressf("faults: %s rate=%g unprot=%.2e prot=%.2e detected=%d",
				sv.name, rate, row.UnprotRel, row.ProtRel, row.Detected)
		}
	}

	// Communication-failure sweep: the numerics are untouched (faults charge
	// time, not values), so the clean run is the shared baseline.
	cleanCl, err := dist.NewCluster(cfg.Machine, 1, a)
	if err != nil {
		return nil, err
	}
	cleanOpts := basisOpts(cfg, basis.Chebyshev, solver.RecursiveResidualMNorm)
	cleanOpts.Spectrum = st.spectrum
	cleanOpts.Tracker = dist.NewTracker(cleanCl)
	_, cs, err := solver.PCG(st.a, st.m, st.b, cleanOpts)
	if err != nil {
		return nil, err
	}
	for _, p := range probs {
		m := cfg.Machine
		m.Faults = dist.FaultModel{CommFailProb: p, Seed: seed}
		cl, err := dist.NewCluster(m, 1, a)
		if err != nil {
			return nil, err
		}
		opts := basisOpts(cfg, basis.Chebyshev, solver.RecursiveResidualMNorm)
		opts.Spectrum = st.spectrum
		opts.Tracker = dist.NewTracker(cl)
		_, fs, err := solver.PCG(st.a, st.m, st.b, opts)
		if err != nil {
			return nil, err
		}
		if fs.Iterations != cs.Iterations {
			return nil, fmt.Errorf("experiments: comm fault model changed iteration count (%d vs %d)", fs.Iterations, cs.Iterations)
		}
		res.Comm = append(res.Comm, FaultCommRow{
			Prob: p, Retried: fs.RetriedMessages,
			CleanTime: cs.SimTime, FaultyTime: fs.SimTime,
		})
		cfg.progressf("faults: comm p=%g retried=%d time %.4fs -> %.4fs", p, fs.RetriedMessages, cs.SimTime, fs.SimTime)
	}
	return res, nil
}

// RenderFaults prints the sweep in the repo's table style.
func RenderFaults(w io.Writer, r *FaultsResult) {
	fmt.Fprintf(w, "Fault tolerance sweep (2D Poisson %dx%d, s=%d)\n\n", r.Dim, r.Dim, r.S)
	fmt.Fprintf(w, "Soft errors (per-SpMV corruption; true relative residual):\n")
	fmt.Fprintf(w, "%-6s %-8s %-9s %-12s %-12s %-9s %-10s %s\n",
		"solver", "rate", "injected", "unprotected", "protected", "detected", "rollbacks", "iters")
	for _, row := range r.Soft {
		fmt.Fprintf(w, "%-6s %-8g %-9d %-12s %-12s %-9d %-10d %d\n",
			row.Solver, row.Rate, row.Injected,
			relMark(row.UnprotRel, row.UnprotOK), relMark(row.ProtRel, row.ProtOK),
			row.Detected, row.Rollbacks, row.Iterations)
	}
	fmt.Fprintf(w, "\nTransient communication failures (modeled time, PCG):\n")
	fmt.Fprintf(w, "%-8s %-9s %-12s %-12s %s\n", "prob", "retried", "clean (s)", "faulty (s)", "overhead")
	for _, row := range r.Comm {
		fmt.Fprintf(w, "%-8g %-9d %-12.4g %-12.4g %.2fx\n",
			row.Prob, row.Retried, row.CleanTime, row.FaultyTime, row.FaultyTime/row.CleanTime)
	}
}

// relMark formats a true relative residual with a pass/fail marker.
func relMark(rel float64, ok bool) string {
	mark := "FAIL"
	if ok {
		mark = "ok"
	}
	return fmt.Sprintf("%.1e %s", rel, mark)
}
