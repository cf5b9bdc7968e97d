package service

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"spcg/internal/tune"
)

// TestResolveAgreement: one configuration is one solve, however it is
// reached. Each candidate is served by spcgd's HTTP API (solo), probed by
// the daemon's tuner (cacheRunner) and probed standalone (tune.DirectRunner,
// what the benchmark's tune probe measures); all three must report
// the same iteration count and a bit-equal final criterion. Rows run in one
// order everywhere because a matrix's Ritz estimate of M⁻¹A is computed for
// whichever block size asks first (capcg s=16 before capcg3 s=8, both on
// Jacobi).
func TestResolveAgreement(t *testing.T) {
	const (
		matrix   = "ecology2"
		tol      = 1e-8
		maxIters = 5000
	)
	cands := []tune.Candidate{
		{Method: "capcg", S: 16, Basis: "chebyshev", Precond: "jacobi"},
		{Method: "spcg", S: 4, Basis: "monomial", Precond: "ssor"},
		{Method: "pcg", Precond: ""},
		{Method: "capcg3", S: 8, Basis: ""},
	}
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a, fp, err := s.reg.get(matrix)
	if err != nil {
		t.Fatal(err)
	}
	daemon := &cacheRunner{s: s, a: a, fp: fp}
	direct := &tune.DirectRunner{A: a}

	for _, c := range cands {
		code, st := postSolve(t, ts.URL, SolveRequest{
			Matrix: matrix, Method: c.Method, S: c.S, Basis: c.Basis, Precond: c.Precond,
			Tol: tol, MaxIters: maxIters,
		})
		if code != http.StatusOK || st.State != JobDone || st.Result == nil {
			t.Fatalf("%s: HTTP %d %+v", c, code, st)
		}
		served := st.Result
		if !served.Converged {
			t.Errorf("%s: served solve did not converge (%d iterations)", c, served.Iterations)
		}
		for name, o := range map[string]tune.Outcome{
			"cacheRunner":  daemon.Probe(c, maxIters, tol),
			"DirectRunner": direct.Probe(c, maxIters, tol),
		} {
			if o.Err != "" || o.Breakdown != "" {
				t.Errorf("%s via %s: %+v", c, name, o)
			}
			//spcglint:ignore floatcmp one resolve path means the same solve, bit for bit
			if o.Iterations != served.Iterations || o.Relative != served.FinalRelative {
				t.Errorf("%s: served %d iterations (final %v), %s %d (final %v)",
					c, served.Iterations, served.FinalRelative, name, o.Iterations, o.Relative)
			}
		}
	}
}
