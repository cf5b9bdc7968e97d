package service

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spcg/internal/tune"
)

// putPin stores a tuned decision for fp whose every candidate pins format.
func putPin(t *testing.T, s *Server, fp uint64, format string) {
	t.Helper()
	c := tune.Candidate{Method: "pcg", Precond: "jacobi", Format: format}
	if err := s.tuner.store.Put(&tune.Decision{
		Fingerprint: tune.FpString(fp),
		Winner:      c,
		Ranked:      []tune.RankedCandidate{{Candidate: c}},
		Source:      "tuned",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownFormatPinFallsBackToSelector: a stored pin the format engine
// does not know — a typo, or a name an older build wrote — must not make the
// matrix unservable: it resolves, is served, and the result reports the
// selector's pick.
func TestUnknownFormatPinFallsBackToSelector(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const name = "poisson2d:64" // below the probe threshold: the selector keeps csr
	a, fp, err := s.reg.get(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []string{"bogus", "csr+rcm", "sell+rcm"} {
		if plan := s.storage(a, fp, pin); plan.name != "csr" || plan.sell != nil {
			t.Fatalf("resolve(%q) = %q sell=%v, want the selector's csr", pin, plan.name, plan.sell != nil)
		}
		putPin(t, s, fp, pin)
		code, st := postSolve(t, ts.URL, SolveRequest{Matrix: name, Method: "auto"})
		if code != http.StatusOK || st.Result == nil || !st.Result.Converged {
			t.Fatalf("pin %q: HTTP %d result=%+v", pin, code, st.Result)
		}
		if st.Result.Format != "csr" {
			t.Fatalf("pin %q: Format = %q, want the selector's csr", pin, st.Result.Format)
		}
	}
}

// TestTunedFormatPinServedEndToEnd seeds the tune store with a decision that
// pins "sell" and drives a method:"auto" request through the HTTP surface:
// the solve must run on the pinned format (visible in the result's Format
// field and the spcgd_format_* metrics) and return the same solution norm as
// a plain CSR solve.
func TestTunedFormatPinServedEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const name = "poisson2d:64"
	_, fp, err := s.reg.get(name)
	if err != nil {
		t.Fatal(err)
	}
	putPin(t, s, fp, "sell")

	code, st := postSolve(t, ts.URL, SolveRequest{Matrix: name, Method: "auto"})
	if code != http.StatusOK || st.Result == nil || !st.Result.Converged {
		t.Fatalf("auto solve: HTTP %d result=%+v", code, st.Result)
	}
	if st.Result.Format != "sell" {
		t.Fatalf("Format = %q, want sell", st.Result.Format)
	}

	code, stNat := postSolve(t, ts.URL, SolveRequest{Matrix: name, Method: "pcg", Precond: "jacobi"})
	if code != http.StatusOK || stNat.Result == nil || !stNat.Result.Converged {
		t.Fatalf("csr solve: HTTP %d result=%+v", code, stNat.Result)
	}
	if stNat.Result.Format != "csr" {
		t.Fatalf("unpinned Format = %q, want csr (below probe threshold)", stNat.Result.Format)
	}
	if d := math.Abs(st.Result.XNorm - stNat.Result.XNorm); d > 1e-6*(1+stNat.Result.XNorm) {
		t.Fatalf("XNorm %v (sell) vs %v (csr)", st.Result.XNorm, stNat.Result.XNorm)
	}

	m := getMetrics(t, ts.URL)
	if m.Formats.SellSolves < 1 {
		t.Fatalf("format metrics: %+v, want ≥1 sell solve", m.Formats)
	}
	if m.Formats.Conversions < 1 {
		t.Fatalf("format metrics: %+v, want ≥1 conversion", m.Formats)
	}
	if m.Formats.CSRSolves < 1 {
		t.Fatalf("format metrics: %+v, want ≥1 csr solve", m.Formats)
	}
}

// TestFormatDecidedOncePerMatrix: a matrix's format decision lives on its
// registry entry, not in a bounded cache, while its SELL conversion goes
// with the matrix. With a one-entry setup cache, three matrices served
// round-robin are each released when the next one is served; the test flips
// each decision after the first pass, and the second pass serves the
// flipped format with the first pass's bits — the selector did not run
// again — so each matrix is converted to SELL in exactly one pass.
func TestFormatDecidedOncePerMatrix(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 1})
	defer shutdownServer(t, s)

	names := []string{"poisson2d:96", "poisson2d:100", "poisson2d:104"} // nnz above sparse.formatProbeMinNNZ
	flipped := make([]string, len(names))
	xnorm := make([]float64, len(names))
	for pass := 0; pass < 2; pass++ {
		for i, name := range names {
			st := waitJob(t, mustSubmit(t, s, SolveRequest{Matrix: name, Method: "pcg", NoBatch: true}), 30*time.Second)
			if st.State != JobDone || !st.Result.Converged {
				t.Fatalf("pass %d %s: state=%s result=%+v", pass, name, st.State, st.Result)
			}
			fp, err := s.reg.resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			e := s.reg.owner(fp)
			if pass == 0 {
				xnorm[i] = st.Result.XNorm
				flipped[i] = map[string]string{"csr": "sell", "sell": "csr"}[st.Result.Format]
				e.fmu.Lock()
				e.choice = flipped[i]
				e.fmu.Unlock()
				continue
			}
			//spcglint:ignore floatcmp a rebuilt matrix and conversion give the first build's bits
			if st.Result.Format != flipped[i] || st.Result.XNorm != xnorm[i] {
				t.Errorf("%s: second pass on %s with x_norm %v, want the kept decision %s and %v", name, st.Result.Format, st.Result.XNorm, flipped[i], xnorm[i])
			}
		}
	}
	for _, name := range names[:2] {
		fp, _ := s.reg.resolve(name)
		e := s.reg.owner(fp)
		e.mu.Lock()
		e.fmu.Lock()
		if e.a != nil || e.sell != nil {
			t.Errorf("%s: still built after the next matrix evicted its set-up", name)
		}
		e.fmu.Unlock()
		e.mu.Unlock()
	}
	if got := s.Metrics().Formats.Conversions; got != int64(len(names)) {
		t.Errorf("conversions = %d, want one per matrix (%d): each is on SELL in one pass", got, len(names))
	}
	if m := s.Metrics().Registry; m.Matrices != 1 {
		t.Errorf("registry %+v, want only the last matrix built", m)
	}
}
