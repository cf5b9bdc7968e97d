package service

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spcg/internal/sparse"
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

// TestFormatDecidedOncePerMatrix: a matrix's storage state lives on its
// registry entry, not in a bounded cache — with a one-entry setup cache,
// three matrices served round-robin on a "sell" pin are each converted once
// and the second pass runs on the first pass's conversion.
func TestFormatDecidedOncePerMatrix(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 1})
	defer shutdownServer(t, s)

	names := []string{"poisson2d:96", "poisson2d:100", "poisson2d:104"} // nnz above sparse.formatProbeMinNNZ
	fps := make([]uint64, len(names))
	for i, name := range names {
		_, fp, err := s.reg.get(name)
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
		putPin(t, s, fp, "sell")
	}
	var first []*sparse.SELL
	for pass := 0; pass < 2; pass++ {
		for i, name := range names {
			st := waitJob(t, mustSubmit(t, s, SolveRequest{Matrix: name, Method: "auto"}), 30*time.Second)
			if st.State != JobDone || !st.Result.Converged || st.Result.Format != "sell" {
				t.Fatalf("pass %d %s: state=%s result=%+v", pass, name, st.State, st.Result)
			}
			sell := s.reg.owner(fps[i]).sell
			if pass == 0 {
				first = append(first, sell)
			} else if sell != first[i] {
				t.Errorf("%s: second pass ran on a new conversion", name)
			}
		}
	}
	if got := s.Metrics().Formats.Conversions; got != int64(len(names)) {
		t.Errorf("conversions = %d, want one per matrix (%d)", got, len(names))
	}
}
