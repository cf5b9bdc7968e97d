package basis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTypeStringParse(t *testing.T) {
	for _, tt := range []Type{Monomial, Newton, Chebyshev} {
		got, err := ParseType(tt.String())
		if err != nil || got != tt {
			t.Fatalf("round trip %v: got %v, err %v", tt, got, err)
		}
	}
	if _, err := ParseType("legendre"); err == nil {
		t.Fatal("expected error for unknown type")
	}
	if s := Type(99).String(); s != "basis.Type(99)" {
		t.Fatalf("unknown String = %q", s)
	}
}

func TestMonomialParamsEval(t *testing.T) {
	p := MonomialParams(4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	vals := p.Eval(2, 4)
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("P_%d(2) = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestChebyshevParamsEval(t *testing.T) {
	// On [−1, 1] the basis must reproduce the classical Chebyshev
	// polynomials T_l: c = 0, e = 1.
	p := ChebyshevParams(5, -1, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{-1, -0.5, 0, 0.3, 1} {
		vals := p.Eval(z, 5)
		theta := math.Acos(z)
		for l := 0; l <= 5; l++ {
			want := math.Cos(float64(l) * theta)
			if math.Abs(vals[l]-want) > 1e-12 {
				t.Fatalf("T_%d(%v) = %v, want %v", l, z, vals[l], want)
			}
		}
	}
}

func TestChebyshevBoundedOnInterval(t *testing.T) {
	// Scaled Chebyshev values stay in [−1, 1] on the interval — the property
	// that makes the basis well conditioned. Monomial values explode.
	lo, hi := 0.01, 12.0
	p := ChebyshevParams(10, lo, hi)
	m := MonomialParams(10)
	for z := lo; z <= hi; z += (hi - lo) / 37 {
		for l, v := range p.Eval(z, 10) {
			if math.Abs(v) > 1+1e-9 {
				t.Fatalf("|T_%d(%v)| = %v > 1", l, z, v)
			}
		}
		if vm := m.Eval(hi, 10); math.Abs(vm[10]) < 1e9 {
			t.Fatalf("monomial P_10(%v) = %v unexpectedly small", hi, vm[10])
		}
	}
}

func TestNewtonParamsRoots(t *testing.T) {
	shifts := []float64{1, 2, 3}
	p := NewtonParams(3, shifts, 0, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// P_l has roots at the first l (Leja-ordered) shifts.
	for l := 1; l <= 3; l++ {
		for _, root := range p.Theta[:l] {
			vals := p.Eval(root, 3)
			if math.Abs(vals[l]) > 1e-12 {
				t.Fatalf("P_%d(%v) = %v, want 0", l, root, vals[l])
			}
		}
	}
}

func TestNewtonShiftsCycle(t *testing.T) {
	p := NewtonParams(5, []float64{1, 9}, 0, 10)
	// Leja order of {1,9} starts at 9 (max magnitude).
	if p.Theta[0] != 9 || p.Theta[1] != 1 || p.Theta[2] != 9 || p.Theta[3] != 1 || p.Theta[4] != 9 {
		t.Fatalf("cyclic shifts = %v", p.Theta)
	}
}

func TestLejaOrder(t *testing.T) {
	pts := []float64{0, 1, 2, 3, 4}
	out := LejaOrder(pts)
	if out[0] != 4 {
		t.Fatalf("first Leja point = %v, want 4", out[0])
	}
	if out[1] != 0 {
		t.Fatalf("second Leja point = %v, want 0 (farthest from 4)", out[1])
	}
	// Permutation property.
	seen := map[float64]bool{}
	for _, v := range out {
		seen[v] = true
	}
	for _, v := range pts {
		if !seen[v] {
			t.Fatalf("point %v lost", v)
		}
	}
	// Input unmodified.
	if pts[0] != 0 || pts[4] != 4 {
		t.Fatal("LejaOrder modified input")
	}
}

func TestLejaOrderDuplicates(t *testing.T) {
	out := LejaOrder([]float64{2, 2, 2})
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestChangeOfBasisConsistentWithEval(t *testing.T) {
	// z·[P₀..P_{s−1}](z) == [P₀..P_s](z)·B_{s+1} for any z: the defining
	// property of the change-of-basis matrix, checked per basis type.
	rng := rand.New(rand.NewSource(5))
	ritz := []float64{0.5, 2.5, 7.0}
	for _, typ := range []Type{Monomial, Newton, Chebyshev} {
		p, err := New(typ, 6, 0.1, 9.5, ritz)
		if err != nil {
			t.Fatal(err)
		}
		b := p.ChangeOfBasis(7) // 7×6
		for trial := 0; trial < 10; trial++ {
			z := rng.Float64()*12 - 1
			vals := p.Eval(z, 6)
			for col := 0; col < 6; col++ {
				var rhs float64
				for row := 0; row < 7; row++ {
					rhs += vals[row] * b.At(row, col)
				}
				lhs := z * vals[col]
				if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
					t.Fatalf("%v: z·P_%d(%v) = %v but V·B gives %v", typ, col, z, lhs, rhs)
				}
			}
		}
	}
}

func TestCAPCGChangeOfBasisStructure(t *testing.T) {
	p := ChebyshevParams(3, 1, 5)
	s := 3
	b := p.CAPCGChangeOfBasis(s)
	n := 2*s + 1
	if b.R != n || b.C != n {
		t.Fatalf("shape %d×%d", b.R, b.C)
	}
	// Column s (last of Q block) and column 2s must be zero.
	for i := 0; i < n; i++ {
		if b.At(i, s) != 0 || b.At(i, 2*s) != 0 {
			t.Fatal("zero columns violated")
		}
	}
	// Top-left block matches B_{s+1}.
	bs1 := p.ChangeOfBasis(s + 1)
	for i := 0; i <= s; i++ {
		for j := 0; j < s; j++ {
			if b.At(i, j) != bs1.At(i, j) {
				t.Fatal("top-left block mismatch")
			}
		}
	}
	// Bottom-right block matches B_s at offset (s+1, s+1).
	bs := p.ChangeOfBasis(s)
	for i := 0; i < s; i++ {
		for j := 0; j < s-1; j++ {
			if b.At(s+1+i, s+1+j) != bs.At(i, j) {
				t.Fatal("bottom-right block mismatch")
			}
		}
	}
	// Q-block rows must not leak into R-block columns and vice versa.
	for i := s + 1; i < n; i++ {
		for j := 0; j < s; j++ {
			if b.At(i, j) != 0 {
				t.Fatal("R rows leak into Q columns")
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	p := MonomialParams(3)
	p.Gamma[1] = 0
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for zero gamma")
	}
	p = MonomialParams(3)
	p.Mu = p.Mu[:0]
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for short Mu")
	}
	p = MonomialParams(3)
	p.Gamma = p.Gamma[:1]
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for short Gamma")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Chebyshev, 3, 5, 5, nil); err == nil {
		t.Fatal("expected error for empty Chebyshev interval")
	}
	if _, err := New(Type(42), 3, 0, 1, nil); err == nil {
		t.Fatal("expected error for unknown type")
	}
	// Newton without Ritz values falls back to Chebyshev points.
	p, err := New(Newton, 3, 0, 1, nil)
	if err != nil || p.Type != Newton {
		t.Fatalf("Newton fallback failed: %v", err)
	}
}

func TestChebyshevPoints(t *testing.T) {
	pts := ChebyshevPoints(4, 0, 2)
	if len(pts) != 4 {
		t.Fatal("count")
	}
	for _, v := range pts {
		if v < 0 || v > 2 {
			t.Fatalf("point %v outside interval", v)
		}
	}
}

// Property: three-term recurrence evaluation is exact for random parameter
// sets — Eval and ChangeOfBasis agree for arbitrary valid Params.
func TestRecurrenceIdentityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := 2 + rng.Intn(6)
		p := &Params{
			Type:  Newton,
			Theta: make([]float64, s),
			Gamma: make([]float64, s),
			Mu:    make([]float64, s-1),
		}
		for i := range p.Theta {
			p.Theta[i] = rng.NormFloat64()
			p.Gamma[i] = 0.5 + rng.Float64()
		}
		for i := range p.Mu {
			p.Mu[i] = rng.NormFloat64() * 0.5
		}
		b := p.ChangeOfBasis(s + 1)
		z := rng.NormFloat64() * 2
		vals := p.Eval(z, s)
		for col := 0; col < s; col++ {
			var rhs float64
			for row := 0; row <= s; row++ {
				rhs += vals[row] * b.At(row, col)
			}
			if math.Abs(z*vals[col]-rhs) > 1e-8*(1+math.Abs(z*vals[col])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Eval evaluates the basis polynomials P₀..P_s at a scalar z (the tests'
// oracle; the solvers evaluate at matrices via the MPK).
func (p *Params) Eval(z float64, s int) []float64 {
	if s > p.Degree() {
		panic("basis: Eval degree exceeds parameters")
	}
	vals := make([]float64, s+1)
	vals[0] = 1
	if s == 0 {
		return vals
	}
	vals[1] = (z - p.Theta[0]) / p.Gamma[0]
	for l := 1; l < s; l++ {
		vals[l+1] = ((z-p.Theta[l])*vals[l] - p.Mu[l-1]*vals[l-1]) / p.Gamma[l]
	}
	return vals
}
