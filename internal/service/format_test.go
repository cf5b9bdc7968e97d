package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"spcg/internal/sparse"
	"spcg/internal/tune"
)

// oldStoreFile is a tune store as builds that raced CSR against SELL-C-σ
// wrote it: every candidate carries the storage format its trials ran on,
// "sell" included, and a stale or mistyped name may stand among them. %s is
// the matrix fingerprint.
const oldStoreFile = `{
  "version": 1,
  "entries": [
    {
      "fingerprint": "%[1]s",
      "matrix": "poisson2d:64",
      "winner": {"method": "capcg", "s": 4, "basis": "chebyshev", "precond": "jacobi", "format": "%[2]s"},
      "ranked": [
        {"candidate": {"method": "capcg", "s": 4, "basis": "chebyshev", "precond": "jacobi", "format": "%[2]s"}, "score": 1.5},
        {"candidate": {"method": "pcg", "precond": "jacobi", "format": "bogus"}, "score": 2.5}
      ],
      "source": "tuned",
      "created_unix": 1700000000,
      "last_used_unix": 1700000000
    }
  ]
}
`

// openOldStore writes oldStoreFile for the named matrix with its winner
// pinning format, and opens it.
func openOldStore(t *testing.T, name, format string) *tune.Store {
	t.Helper()
	build, _, _, err := sparse.ParseMatrixSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tune.json")
	if err := os.WriteFile(path, []byte(fmt.Sprintf(oldStoreFile, tune.FpString(build().Fingerprint()), format)), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := tune.OpenStore(path, 0)
	if err != nil {
		t.Fatalf("old store pinning %q does not open: %v", format, err)
	}
	return store
}

// TestUnknownFormatPinFallsBackToSelector: a stored pin no build knows — a
// typo, or a name an older build wrote — must not make the matrix
// unservable. With the CSR-or-SELL selector gone the fallback is the one
// storage there is: the stored winner serves on CSR.
func TestUnknownFormatPinFallsBackToSelector(t *testing.T) {
	const name = "poisson2d:64"
	for _, pin := range []string{"bogus", "csr+rcm", "sell+rcm"} {
		s := New(Config{Workers: 2, TuneStore: openOldStore(t, name, pin)})
		ts := httptest.NewServer(s.Handler())
		code, st := postSolve(t, ts.URL, SolveRequest{Matrix: name, Method: "auto"})
		ts.Close()
		shutdownServer(t, s)
		if code != http.StatusOK || st.Result == nil || !st.Result.Converged {
			t.Fatalf("pin %q: HTTP %d result=%+v", pin, code, st.Result)
		}
		if st.Result.TuneSource != "store" || st.Result.Format != "csr" {
			t.Fatalf("pin %q: served from %q on %q, want the stored winner on csr", pin, st.Result.TuneSource, st.Result.Format)
		}
	}
}

// TestTunedFormatPinServedEndToEnd: a store file whose decision pins "sell"
// opens, its winner serves a method:"auto" request over HTTP on CSR — the
// one storage solves run on — with the bits of the same configuration asked
// for by name, and nothing is converted.
func TestTunedFormatPinServedEndToEnd(t *testing.T) {
	const name = "poisson2d:64"
	s := New(Config{Workers: 2, TuneStore: openOldStore(t, name, "sell")})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, auto := postSolve(t, ts.URL, SolveRequest{Matrix: name, Method: "auto"})
	if code != http.StatusOK || auto.Result == nil || !auto.Result.Converged {
		t.Fatalf("auto solve: HTTP %d result=%+v", code, auto.Result)
	}
	res := auto.Result
	if res.TuneSource != "store" || res.Method != "capcg" || res.Format != "csr" {
		t.Fatalf("auto solve served %s from %q on %q, want the stored capcg on csr", res.Method, res.TuneSource, res.Format)
	}
	want := tune.Candidate{Method: "capcg", S: 4, Basis: "chebyshev", Precond: "jacobi"}
	if res.TunedConfig == nil || *res.TunedConfig != want {
		t.Fatalf("tuned config %+v, want %+v", res.TunedConfig, want)
	}

	code, named := postSolve(t, ts.URL, SolveRequest{Matrix: name, Method: "capcg", S: 4, Basis: "chebyshev", Precond: "jacobi"})
	if code != http.StatusOK || named.Result == nil || named.Result.Format != "csr" {
		t.Fatalf("named solve: HTTP %d result=%+v", code, named.Result)
	}
	//spcglint:ignore floatcmp one configuration on one matrix gives one set of bits
	if res.XNorm != named.Result.XNorm || res.Iterations != named.Result.Iterations {
		t.Fatalf("auto x_norm %v in %d iterations, named %v in %d", res.XNorm, res.Iterations, named.Result.XNorm, named.Result.Iterations)
	}
	if m := getMetrics(t, ts.URL); m.Formats.Conversions != 0 {
		t.Fatalf("formats %+v, want no conversion", m.Formats)
	}
}
