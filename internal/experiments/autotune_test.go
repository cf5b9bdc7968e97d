package experiments

import (
	"testing"

	"spcg/internal/suite"
	"spcg/internal/tune"
)

// TestFullSolveMatchesDirectRunner: the benchmark's full solves and the
// tuner's probes resolve a candidate identically (the rows of
// service.TestResolveAgreement), so the BENCH_autotune.json comparison of
// "auto" against the statics measures one configuration per name. Each row
// gets a fresh runner, as fullSolve gets a fresh Setup.
func TestFullSolveMatchesDirectRunner(t *testing.T) {
	p, _ := suite.ByName("ecology2")
	a := p.Build(100)
	cfg := AutotuneConfig{Reps: 1, MaxIterations: 5000, Tol: 1e-8}
	for _, c := range []tune.Candidate{
		{Method: "capcg", S: 16, Basis: "chebyshev", Precond: "jacobi"},
		{Method: "spcg", S: 4, Basis: "monomial", Precond: "ssor"},
		{Method: "pcg", Precond: ""},
		{Method: "capcg3", S: 8, Basis: ""},
	} {
		sv := fullSolve(a, c, cfg)
		o := (&tune.DirectRunner{A: a}).Probe(c, cfg.MaxIterations, cfg.Tol)
		if sv.Error != "" || sv.Breakdown != "" || o.Err != "" || o.Breakdown != "" {
			t.Errorf("%s: fullSolve %+v, probe %+v", c, sv, o)
		}
		if sv.Iterations != o.Iterations || sv.Converged != o.Converged {
			t.Errorf("%s: fullSolve %d iterations (converged %v), DirectRunner %d (converged %v)",
				c, sv.Iterations, sv.Converged, o.Iterations, o.Converged)
		}
	}
}
