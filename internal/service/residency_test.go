package service

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/tune"
)

// TestTuneLookupKeepsNoMatrix: GET /tune/{matrix} needs only the tune
// store's key, so it builds a matrix only to fingerprint it. A fresh server
// keeps no built matrix after the lookup, a repeat lookup builds nothing,
// and the fingerprint it resolved is that of the matrix a later solve builds
// and keeps.
func TestTuneLookupKeepsNoMatrix(t *testing.T) {
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

	lookup := func() uint64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/tune/" + name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /tune on an untuned matrix: HTTP %d, want 404", resp.StatusCode)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.fp
	}

	fp := lookup()
	if m := getMetrics(t, ts.URL).Registry; m.Matrices != 0 || m.Bytes != 0 || builds() != 1 {
		t.Fatalf("after one lookup: %+v resident, %d builds; want none resident, 1 build", m, builds())
	}
	if fp2 := lookup(); fp2 != fp || builds() != 1 {
		t.Fatalf("repeat lookup: fingerprint %d after %d, %d builds; want the same, 1 build", fp2, fp, builds())
	}

	code, st := postSolve(t, ts.URL, SolveRequest{Matrix: name, Method: "pcg", NoBatch: true})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("solve: HTTP %d %+v", code, st)
	}
	a, solveFP, err := s.reg.get(name)
	if err != nil {
		t.Fatal(err)
	}
	if solveFP != fp {
		t.Fatalf("solve built fingerprint %d, lookup resolved %d", solveFP, fp)
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

// TestEvictionReleasesMatrix: with a one-entry setup cache, serving B evicts
// A's only set-up, and the registry drops A's CSR: the gauges count B alone.
// Serving A again rebuilds it under the fingerprint it was routed on, with
// the first build's bits, x's bits and the first Ritz estimate — the entry
// kept its Spectra, so no Ritz run repeats.
func TestEvictionReleasesMatrix(t *testing.T) {
	const a, b = "poisson2d:20", "poisson2d:24"
	s := New(Config{Workers: 1, CacheSize: 1})
	defer shutdownServer(t, s)

	solve := func(m string) *SolveResult {
		t.Helper()
		st := waitJob(t, mustSubmit(t, s, SolveRequest{Matrix: m, Method: "spcg", S: 4, NoBatch: true}), 30*time.Second)
		if st.State != JobDone || !st.Result.Converged {
			t.Fatalf("%s: state=%s result=%+v", m, st.State, st.Result)
		}
		return st.Result
	}
	// held returns the matrix the registry holds for m, and the Ritz
	// estimate of M⁻¹A its cached set-up resolves to.
	held := func(m string) (*sparse.CSR, uint64, *eig.Estimate) {
		t.Helper()
		csr, fp, err := s.reg.get(m)
		if err != nil {
			t.Fatal(err)
		}
		_, _, opts, err := tune.Candidate{Method: "spcg", S: 4}.Resolve(csr, s.setup(fp, precond.Spec{}))
		if err != nil || opts.Spectrum == nil {
			t.Fatalf("%s: Resolve: %v, spectrum %v", m, err, opts.Spectrum)
		}
		return csr, fp, opts.Spectrum
	}

	first := solve(a)
	csrA, fpA, estA := held(a)
	if m := s.Metrics().Registry; m.Matrices != 1 || m.Bytes != csrA.Bytes() {
		t.Fatalf("after A: registry %+v, want A's %d bytes", m, csrA.Bytes())
	}

	solve(b)
	csrB, _, _ := held(b)
	if m := s.Metrics().Registry; m.Matrices != 1 || m.Bytes != csrB.Bytes() {
		t.Fatalf("after B: registry %+v, want only B's %d bytes", m, csrB.Bytes())
	}
	e, _ := s.reg.entry(a)
	e.mu.Lock()
	released := e.a == nil
	e.mu.Unlock()
	if !released {
		t.Fatal("A is still built after B evicted its only set-up")
	}

	again := solve(a)
	rebuilt, fp, est := held(a)
	if fp != fpA || rebuilt == csrA {
		t.Fatalf("A again: fingerprint %d (was %d), same *CSR %v; want the same fingerprint on a rebuilt matrix", fp, fpA, rebuilt == csrA)
	}
	if !slices.Equal(rebuilt.RowPtr, csrA.RowPtr) || !slices.Equal(rebuilt.ColIdx, csrA.ColIdx) ||
		!slices.EqualFunc(rebuilt.Val, csrA.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Fatal("the rebuilt matrix differs from the first build")
	}
	//spcglint:ignore floatcmp the rebuilt matrix gives the first solve's bits
	if again.XNorm != first.XNorm || again.Iterations != first.Iterations || again.TrueRelResidual != first.TrueRelResidual {
		t.Fatalf("A again: %+v, first %+v", again, first)
	}
	if est != estA {
		t.Fatal("the Ritz estimate of M⁻¹A was recomputed after the rebuild")
	}
}

// TestSpecFloodResidencyBounded: 2 000 distinct generator specs through a
// server with a 4-entry setup cache. The registry keeps every entry's O(1)
// state, but after each solve it holds at most the 4 matrices the cache
// holds set-ups on: its bytes never exceed the 4 largest matrices served so
// far plus the one just served.
func TestSpecFloodResidencyBounded(t *testing.T) {
	const cache = 4
	s := New(Config{Workers: 1, CacheSize: cache})
	defer shutdownServer(t, s)

	var largest []int64 // the bytes of the cache largest matrices served so far
	served := 0
	for nx := 2; nx < 42; nx++ {
		for ny := 2; ny < 52; ny++ {
			name := fmt.Sprintf("poisson2d:%d:%d", nx, ny)
			st := waitJob(t, mustSubmit(t, s, SolveRequest{Matrix: name, Method: "pcg", Tol: 1e-4, NoBatch: true}), 30*time.Second)
			if st.State != JobDone || !st.Result.Converged {
				t.Fatalf("%s: state=%s result=%+v", name, st.State, st.Result)
			}
			served++
			a, _, err := s.reg.get(name) // held: its set-up is the newest in the cache
			if err != nil {
				t.Fatal(err)
			}
			bound := a.Bytes()
			for _, b := range largest {
				bound += b
			}
			largest = append(largest, a.Bytes())
			slices.SortFunc(largest, func(x, y int64) int { return cmp.Compare(y, x) })
			largest = largest[:min(cache, len(largest))]

			if n, bytes := s.reg.residency(); n > cache || bytes > bound {
				t.Fatalf("after %d specs (%s): %d matrices of %d bytes held, want ≤ %d and ≤ %d bytes", served, name, n, bytes, cache, bound)
			}
		}
	}
	if served != 2000 {
		t.Fatalf("%d specs served, want 2000", served)
	}
	if m := s.Metrics().Registry; m.Matrices != cache {
		t.Fatalf("registry %+v after the flood, want the %d matrices the cache holds set-ups on", m, cache)
	}
}

// TestEvictionReleaseConcurrent: solves, tune lookups and metric reads
// from several goroutines over more (matrix, preconditioner) pairs than a
// two-entry cache holds, so set-ups are evicted and matrices released and
// rebuilt while other workers solve on them. Under -race this is the check
// of the cache → registry order: an eviction releases after the cache's
// lock is gone, and a release takes an entry's locks before the registry's,
// as get does. Every solve converges, and at rest the registry holds no
// more matrices than the cache holds set-ups.
func TestEvictionReleaseConcurrent(t *testing.T) {
	const cache = 2
	s := New(Config{Workers: 3, CacheSize: cache, BatchMax: 1})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	matrices := []string{"poisson2d:12", "poisson2d:14", "poisson2d:16", "poisson2d:18"}
	preconds := []string{"jacobi", "ssor"}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				req := SolveRequest{Matrix: matrices[(c+i)%len(matrices)], Method: "pcg", Precond: preconds[(i/len(matrices))%2]}
				j, err := s.Submit(req)
				if err != nil {
					t.Errorf("submit %+v: %v", req, err)
					return
				}
				<-j.done
				if st := j.status(); st.State != JobDone || !st.Result.Converged {
					t.Errorf("%+v: state=%s result=%+v", req, st.State, st.Result)
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 48; i++ {
			resp, err := http.Get(ts.URL + "/tune/" + matrices[i%len(matrices)])
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			s.Metrics()
		}
	}()
	wg.Wait()
	if m, c := s.Metrics().Registry, s.Metrics().SetupCache; m.Matrices > c.Entries || c.Entries > cache {
		t.Fatalf("at rest: registry %+v, setup cache %+v", m, c)
	}
}
