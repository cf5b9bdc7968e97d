package precond

import (
	"testing"

	"spcg/internal/sparse"
)

// TestSpecParseBuild: every name of the preconditioner-spec grammar parses,
// builds and applies; "" is Jacobi; unknown names and out-of-range arguments
// are rejected.
func TestSpecParseBuild(t *testing.T) {
	a := sparse.Poisson2D(8, 8)
	good := []struct{ spec, canonical, name string }{
		{"", "jacobi", "jacobi"},
		{"jacobi", "jacobi", "jacobi"},
		{"none", "identity", "identity"},
		{"identity", "identity", "identity"},
		{"ssor", "ssor:1", "ssor(1)"},
		{"ssor:1.2", "ssor:1.2", "ssor(1.2)"},
		{"ic0", "ic0", "ic0"},
		{"blockjacobi", "blockjacobi:16", "blockjacobi(16)"},
		{"blockjacobi:4", "blockjacobi:4", "blockjacobi(4)"},
		{"chebyshev", "chebyshev:3", "chebyshev(3)"},
		{"Chebyshev:2", "chebyshev:2", "chebyshev(2)"},
	}
	for _, tc := range good {
		spec, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if spec.Canonical() != tc.canonical {
			t.Errorf("Parse(%q).Canonical() = %q, want %q", tc.spec, spec.Canonical(), tc.canonical)
		}
		m, err := spec.Build(a)
		if err != nil {
			t.Errorf("Parse(%q).Build: %v", tc.spec, err)
			continue
		}
		if m.Name() != tc.name {
			t.Errorf("Parse(%q) built %q, want %q", tc.spec, m.Name(), tc.name)
		}
		dst, src := make([]float64, a.Dim()), make([]float64, a.Dim())
		src[0] = 1
		m.Apply(dst, src)
		if dst[0] == 0 {
			t.Errorf("%q: M⁻¹e₀ has a zero leading entry", tc.spec)
		}
	}
	for _, bad := range []string{"nope", "nope:3", "ssor:0", "ssor:2", "ssor:x", "blockjacobi:0", "chebyshev:0", "chebyshev:x"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
