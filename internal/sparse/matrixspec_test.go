package sparse

import (
	"math"
	"testing"
)

// TestParseMatrixSpec: every family of the matrix-spec grammar builds a
// symmetric matrix of exactly the announced dimension under its canonical
// key, and malformed specs are rejected with no build closure.
func TestParseMatrixSpec(t *testing.T) {
	good := []struct {
		spec string
		dim  int
		key  string
	}{
		{"poisson1d:36", 36, "poisson1d:36"},
		{"poisson2d:6", 36, "poisson2d:6:6"},
		{"poisson2d:6:4", 24, "poisson2d:6:4"},
		{"poisson3d:6", 216, "poisson3d:6:6:6"},
		{"poisson3d:2:3:4", 24, "poisson3d:2:3:4"},
		{"varcoeff2d:6:2", 36, "varcoeff2d:6:2:1"},
		{"varcoeff2d:6:2:7", 36, "varcoeff2d:6:2:7"},
		{"varcoeff3d:6:2", 216, "varcoeff3d:6:2:1"},
		{"aniso2d:6:0.01", 36, "aniso2d:6:0.01"},
		{"hubgraph:64", 64, "hubgraph:64:1"},
		{"hubgraph:64:3", 64, "hubgraph:64:3"},
		{"circuit:6", 36, "circuit:6:1"},
		{"circuit:6:-2", 36, "circuit:6:-2"},
		{"Poisson2D:6", 36, "poisson2d:6:6"},
		{"poisson2d:006:+6", 36, "poisson2d:6:6"},
		{"VARCOEFF2D:6:2.50:01", 36, "varcoeff2d:6:2.5:1"},
		{"varcoeff2d:6:-0", 36, "varcoeff2d:6:0:1"},
		{"aniso2d:6:1E-2", 36, "aniso2d:6:0.01"},
	}
	for _, tc := range good {
		build, dim, key, err := ParseMatrixSpec(tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if dim != tc.dim || key != tc.key {
			t.Errorf("%s: dim, key = %d, %q; want %d, %q", tc.spec, dim, key, tc.dim, tc.key)
		}
		a := build()
		if a.Dim() != dim {
			t.Errorf("%s: built n=%d but announced %d", tc.spec, a.Dim(), dim)
		}
		if !a.IsSymmetric(1e-10) {
			t.Errorf("%s: not symmetric", tc.spec)
		}
		if kb, _, _, _ := ParseMatrixSpec(key); kb().Fingerprint() != a.Fingerprint() {
			t.Errorf("%s: its key %q builds another matrix", tc.spec, key)
		}
	}
	// The default seed is 1: the spec with and without it names one matrix.
	a, _, _, _ := ParseMatrixSpec("varcoeff2d:6:2")
	b, _, _, _ := ParseMatrixSpec("varcoeff2d:6:2:1")
	if a().Fingerprint() != b().Fingerprint() {
		t.Error("varcoeff2d:6:2 and varcoeff2d:6:2:1 differ")
	}

	bad := []string{
		"", ":", "nope", "nope:6", "poisson2d", "poisson2d:", "poisson2d:0", "poisson2d:x",
		"poisson2d:6:6:6", "poisson3d:6:6", "poisson1d:-4", "varcoeff2d:6", "varcoeff2d:6:-1",
		"varcoeff2d:6:NaN", "varcoeff2d:6:Inf", "varcoeff2d:6:2:x", "aniso2d:8", "aniso2d:8:0",
		"hubgraph:1", "hubgraph:8:x", "circuit:1", "circuit:-1",
	}
	for _, spec := range bad {
		if build, _, _, err := ParseMatrixSpec(spec); err == nil || build != nil {
			t.Errorf("bad spec %q accepted (err %v)", spec, err)
		}
	}

	// Absurd sizes saturate instead of overflowing, so they compare above any cap.
	for _, spec := range []string{"poisson3d:9999999", "poisson2d:4000000000:4000000000", "varcoeff3d:3000000:10"} {
		_, dim, _, err := ParseMatrixSpec(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		if dim < 1<<40 || dim > math.MaxInt {
			t.Errorf("%s: dim = %d, want a saturated large value", spec, dim)
		}
	}
}

// FuzzMatrixSpec hardens the matrix-spec parser, which takes client input on
// the daemon's request path: an arbitrary spec must parse or be rejected —
// never panic — its key must parse to itself with the same dimension, the
// announced dimension must be the built matrix's, and a spec above the
// caller's cap is recognised from dim alone, so nothing is built for it.
func FuzzMatrixSpec(f *testing.F) {
	for _, seed := range []string{
		"poisson2d:64", "hubgraph:8192:3", "varcoeff2d:48:2:1", "poisson3d:9999999",
		"aniso2d:8:0", ":", "circuit:-1",
	} {
		f.Add(seed)
	}
	const cap = 4096
	f.Fuzz(func(t *testing.T, spec string) {
		build, dim, key, err := ParseMatrixSpec(spec)
		if err != nil {
			if build != nil {
				t.Fatalf("%q: rejected with a build closure", spec)
			}
			return
		}
		if dim < 1 {
			t.Fatalf("%q: accepted with dim %d", spec, dim)
		}
		if _, kdim, kkey, kerr := ParseMatrixSpec(key); kerr != nil || kkey != key || kdim != dim {
			t.Fatalf("%q: key %q parses to (%d, %q, %v), want itself with dim %d", spec, key, kdim, kkey, kerr, dim)
		}
		if dim > cap {
			return // what a capped caller rejects, with build never called
		}
		if a := build(); a.Dim() != dim {
			t.Fatalf("%q: built n=%d but announced %d", spec, a.Dim(), dim)
		}
	})
}
