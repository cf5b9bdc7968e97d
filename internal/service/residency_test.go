package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/tune"
)

// TestAffinityKeepsNoMatrix: GET /affinity builds a matrix only to
// fingerprint it. A fresh server keeps no built matrix after the lookup, a
// repeat lookup builds nothing, and the fingerprint and n it returned are
// those of the matrix a later solve builds and keeps.
func TestAffinityKeepsNoMatrix(t *testing.T) {
	const name = "poisson2d:12"
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	e, err := s.reg.entry(name)
	if err != nil {
		t.Fatal(err)
	}
	var counted atomic.Int64
	e.mu.Lock()
	build := e.build
	e.build = func() *sparse.CSR { counted.Add(1); return build() }
	e.mu.Unlock()
	builds := func() int64 { return counted.Load() }

	lookup := func() (fp uint64, n int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/affinity/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Fingerprint string `json:"fingerprint"`
			N           int    `json:"n"`
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /affinity: HTTP %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		fp, err = strconv.ParseUint(doc.Fingerprint, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return fp, doc.N
	}

	fp, n := lookup()
	if m := getMetrics(t, ts.URL).Registry; m.Matrices != 0 || m.Bytes != 0 || builds() != 1 {
		t.Fatalf("after one lookup: %+v resident, %d builds; want none resident, 1 build", m, builds())
	}
	if fp2, n2 := lookup(); fp2 != fp || n2 != n || builds() != 1 {
		t.Fatalf("repeat lookup: (%d, %d) after (%d, %d), %d builds; want the same pair, 1 build", fp2, n2, fp, n, builds())
	}

	code, st := postSolve(t, ts.URL, SolveRequest{Matrix: name, Method: "pcg", NoBatch: true})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("solve: HTTP %d %+v", code, st)
	}
	a, solveFP, err := s.reg.get(name)
	if err != nil {
		t.Fatal(err)
	}
	if solveFP != fp || a.Dim() != n {
		t.Fatalf("solve built (fp %d, n %d), lookup said (fp %d, n %d)", solveFP, a.Dim(), fp, n)
	}
	m := getMetrics(t, ts.URL).Registry
	if m.Matrices != 1 || m.Bytes != a.Bytes() || builds() != 2 {
		t.Fatalf("after the solve: %+v resident, %d builds; want 1 matrix of %d bytes, 2 builds", m, builds(), a.Bytes())
	}
	lookup()
	if builds() != 2 {
		t.Fatalf("lookup after the solve built again (%d builds)", builds())
	}
}

// TestSpectraOutliveSetupEviction: with a one-entry setup cache, alternating
// preconditioners on one matrix evicts every set-up, yet the Ritz estimate
// of M⁻¹A is computed once per preconditioner (Resolve hands back the same
// *eig.Estimate after eviction), and every served answer is bit-identical to
// a cold server's answer to the same request.
func TestSpectraOutliveSetupEviction(t *testing.T) {
	const matrix = "poisson2d:16"
	preconds := []string{"ic0", "ssor", "chebyshev:4"}
	request := func(p string) SolveRequest {
		return SolveRequest{Matrix: matrix, Method: "spcg", S: 5, Precond: p}
	}
	serve := func(s *Server, url string, req SolveRequest) *SolveResult {
		t.Helper()
		code, st := postSolve(t, url, req)
		if code != http.StatusOK || st.State != JobDone || st.Result == nil || !st.Result.Converged {
			t.Fatalf("%s: HTTP %d %+v", req.Precond, code, st)
		}
		return st.Result
	}

	cold := map[string]*SolveResult{}
	for _, p := range preconds {
		s := New(Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		cold[p] = serve(s, ts.URL, request(p))
		ts.Close()
		shutdownServer(t, s)
	}

	s := New(Config{Workers: 1, CacheSize: 1})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	estimates := map[string]*eig.Estimate{}
	for round := 0; round < 3; round++ {
		for _, p := range preconds {
			got := serve(s, ts.URL, request(p))
			want := cold[p]
			//spcglint:ignore floatcmp a remembered estimate is the estimate a cold server computes
			if got.XNorm != want.XNorm || got.Iterations != want.Iterations || got.TrueRelResidual != want.TrueRelResidual {
				t.Errorf("round %d %s: x_norm %v, %d iterations, true residual %v; cold server %v, %d, %v",
					round, p, got.XNorm, got.Iterations, got.TrueRelResidual, want.XNorm, want.Iterations, want.TrueRelResidual)
			}

			a, fp, err := s.reg.get(matrix)
			if err != nil {
				t.Fatal(err)
			}
			spec, _ := precond.Parse(p)
			_, _, opts, err := tune.Candidate{Method: "spcg", S: 5, Precond: p}.Resolve(a, s.setup(fp, spec))
			if err != nil || opts.Spectrum == nil {
				t.Fatalf("round %d %s: Resolve: %v, spectrum %v", round, p, err, opts.Spectrum)
			}
			if round == 0 {
				estimates[p] = opts.Spectrum
			} else if opts.Spectrum != estimates[p] {
				t.Errorf("round %d %s: the estimate of M⁻¹A was recomputed after eviction", round, p)
			}
		}
	}
	if c := getMetrics(t, ts.URL).SetupCache; c.Entries != 1 || c.Misses < int64(3*len(preconds)) {
		t.Fatalf("setup cache %+v: the alternation did not evict", c)
	}
}
