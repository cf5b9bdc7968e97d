package mpk

import (
	"math"
	"math/rand"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// countingOp wraps a CSR and counts MulVec calls.
type countingOp struct {
	a     *sparse.CSR
	calls int
}

func (c *countingOp) Dim() int { return c.a.Dim() }
func (c *countingOp) MulVec(dst, src []float64) {
	c.calls++
	c.a.MulVec(dst, src)
}

type countingPrec struct {
	m     precond.Interface
	calls int
}

func (c *countingPrec) Apply(dst, src []float64) {
	c.calls++
	c.m.Apply(dst, src)
}

func TestMonomialIdentityPreconditioner(t *testing.T) {
	// With M = I and the monomial basis, S_l = Aˡ·w exactly.
	rng := rand.New(rand.NewSource(1))
	a := sparse.Poisson2D(5, 5)
	n := a.Dim()
	w := randVec(rng, n)
	s := 4
	S := vec.NewBlock(n, s+1)
	U := vec.NewBlock(n, s)
	op := &countingOp{a: a}
	pm := &countingPrec{m: precond.NewIdentity(n)}
	if err := Compute(op, pm, basis.MonomialParams(s), w, nil, S, U); err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), w...)
	tmp := make([]float64, n)
	for l := 0; l <= s; l++ {
		for i := range want {
			if math.Abs(S.Col(l)[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("S col %d row %d: %v vs %v", l, i, S.Col(l)[i], want[i])
			}
		}
		if l < s {
			// U_l == S_l for identity M.
			for i := range want {
				if U.Col(l)[i] != S.Col(l)[i] {
					t.Fatalf("U col %d differs from S col %d", l, l)
				}
			}
		}
		a.MulVec(tmp, want)
		want, tmp = tmp, want
	}
	if op.calls != s {
		t.Fatalf("SpMV calls = %d, want %d", op.calls, s)
	}
	if pm.calls != s { // u0 nil → 1 extra + (s−1)
		t.Fatalf("prec calls = %d, want %d", pm.calls, s)
	}
}

func TestU0Provided(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := sparse.Poisson1D(30)
	n := a.Dim()
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	w := randVec(rng, n)
	u0 := make([]float64, n)
	m.Apply(u0, w)
	s := 3
	S := vec.NewBlock(n, s+1)
	U := vec.NewBlock(n, s)
	pm := &countingPrec{m: m}
	if err := Compute(&countingOp{a: a}, pm, basis.MonomialParams(s), w, u0, S, U); err != nil {
		t.Fatal(err)
	}
	if pm.calls != s-1 {
		t.Fatalf("prec calls = %d, want %d", pm.calls, s-1)
	}
}

func TestUIsMInvS(t *testing.T) {
	// For every basis type: U_l == M⁻¹·S_l.
	rng := rand.New(rand.NewSource(3))
	a := sparse.Poisson2D(6, 6)
	n := a.Dim()
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 0.1, 8.0
	ritz := []float64{0.5, 3, 7}
	s := 5
	for _, typ := range []basis.Type{basis.Monomial, basis.Newton, basis.Chebyshev} {
		params, err := basis.New(typ, s, lo, hi, ritz)
		if err != nil {
			t.Fatal(err)
		}
		w := randVec(rng, n)
		S := vec.NewBlock(n, s+1)
		U := vec.NewBlock(n, s+1) // full-width U exercises the extra column
		if err := Compute(&countingOp{a: a}, m, params, w, nil, S, U); err != nil {
			t.Fatal(err)
		}
		tmp := make([]float64, n)
		for l := 0; l <= s; l++ {
			m.Apply(tmp, S.Col(l))
			for i := 0; i < n; i++ {
				if math.Abs(U.Col(l)[i]-tmp[i]) > 1e-10*(1+math.Abs(tmp[i])) {
					t.Fatalf("%v: U col %d != M⁻¹S col %d at row %d", typ, l, l, i)
				}
			}
		}
	}
}

func TestChangeOfBasisIdentityAU(t *testing.T) {
	// The paper's §3 identity: AU⁽ᵏ⁾ = S⁽ᵏ⁾·B with B = B_{s+1}, for every
	// basis type. This is the contract the sPCG solver relies on.
	rng := rand.New(rand.NewSource(4))
	a := sparse.Poisson2D(7, 5)
	n := a.Dim()
	m, err := precond.NewChebyshev(a, 2, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := 4
	for _, typ := range []basis.Type{basis.Monomial, basis.Newton, basis.Chebyshev} {
		params, err := basis.New(typ, s, 0.2, 8, []float64{1, 4, 7})
		if err != nil {
			t.Fatal(err)
		}
		w := randVec(rng, n)
		S := vec.NewBlock(n, s+1)
		U := vec.NewBlock(n, s)
		if err := Compute(&countingOp{a: a}, m, params, w, nil, S, U); err != nil {
			t.Fatal(err)
		}
		b := params.ChangeOfBasis(s + 1) // (s+1)×s
		au := make([]float64, n)
		sb := make([]float64, n)
		for j := 0; j < s; j++ {
			a.MulVec(au, U.Col(j))
			vec.Zero(sb)
			for i := 0; i <= s; i++ {
				vec.Axpy(b.At(i, j), S.Col(i), sb)
			}
			for r := 0; r < n; r++ {
				if math.Abs(au[r]-sb[r]) > 1e-8*(1+math.Abs(au[r])) {
					t.Fatalf("%v: AU != SB at col %d row %d: %v vs %v", typ, j, r, au[r], sb[r])
				}
			}
		}
	}
}

func TestComputeValidation(t *testing.T) {
	a := sparse.Poisson1D(10)
	n := a.Dim()
	m := precond.NewIdentity(n)
	w := make([]float64, n)
	params := basis.MonomialParams(3)
	cases := []struct {
		name string
		s, u *vec.Block
		w    []float64
		p    *basis.Params
	}{
		{"S too narrow", vec.NewBlock(n, 1), vec.NewBlock(n, 1), w, params},
		{"U wrong width", vec.NewBlock(n, 4), vec.NewBlock(n, 2), w, params},
		{"degree too low", vec.NewBlock(n, 5), vec.NewBlock(n, 4), w, params},
		{"bad w length", vec.NewBlock(n, 4), vec.NewBlock(n, 3), make([]float64, 3), params},
		{"wrong rows", vec.NewBlock(n+1, 4), vec.NewBlock(n+1, 3), w, params},
	}
	for _, tc := range cases {
		if err := Compute(&countingOp{a: a}, m, tc.p, tc.w, nil, tc.s, tc.u); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	bad := basis.MonomialParams(3)
	bad.Gamma[0] = 0
	if err := Compute(&countingOp{a: a}, m, bad, w, nil, vec.NewBlock(n, 4), vec.NewBlock(n, 3)); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestChebyshevBasisBetterConditioned(t *testing.T) {
	// The motivating numerical fact of the paper: for s = 10, the monomial
	// basis Gram matrix is catastrophically ill-conditioned while the
	// Chebyshev basis (on a decent spectral interval) stays usable.
	a := sparse.Poisson1D(100)
	n := a.Dim()
	m := precond.NewIdentity(n)
	lo := 2 - 2*math.Cos(math.Pi/101)
	hi := 2 - 2*math.Cos(100*math.Pi/101)
	s := 10
	rng := rand.New(rand.NewSource(5))
	w := randVec(rng, n)
	cond := map[basis.Type]float64{}
	for _, typ := range []basis.Type{basis.Monomial, basis.Chebyshev} {
		params, err := basis.New(typ, s, lo, hi, nil)
		if err != nil {
			t.Fatal(err)
		}
		S := vec.NewBlock(n, s+1)
		U := vec.NewBlock(n, s)
		if err := Compute(&countingOp{a: a}, m, params, w, nil, S, U); err != nil {
			t.Fatal(err)
		}
		// Condition of the basis via the Gram matrix SᵀS: κ₂(S)² = κ₂(SᵀS).
		g := vec.Gram(S, S)
		gm := matFromSlice(s+1, g)
		cond[typ] = condSPD(gm)
	}
	if cond[basis.Monomial] < 1e12 {
		t.Fatalf("monomial Gram condition %v unexpectedly good", cond[basis.Monomial])
	}
	if cond[basis.Chebyshev] > 1e10 {
		t.Fatalf("Chebyshev Gram condition %v unexpectedly bad", cond[basis.Chebyshev])
	}
	if cond[basis.Chebyshev]*1e4 > cond[basis.Monomial] {
		t.Fatalf("Chebyshev (%v) not clearly better than monomial (%v)", cond[basis.Chebyshev], cond[basis.Monomial])
	}
}

// matFromSlice and condSPD adapt dense helpers without importing dense in
// the main test body twice.

// pairMulOp is countingOp with the paired product.
type pairMulOp struct {
	countingOp
	pairs int
}

func (o *pairMulOp) MulVecPair(dst, src [2][]float64) {
	o.pairs++
	x, d := &vec.Block{N: o.a.N, Cols: src[:]}, &vec.Block{N: o.a.N, Cols: dst[:]}
	o.a.MulBlockPar(d, x)
}

// stepperOp is countingOp with the fused column step of a diagonal
// preconditioner, counting its one- and two-column steps.
type stepperOp struct {
	countingOp
	dinv          []float64
	singles, pair int
}

func (o *stepperOp) FusedBasisSteps(cols [2]sparse.BasisCol, k int, theta, mu, gamma float64) bool {
	if k == 2 {
		o.pair++
	} else {
		o.singles++
	}
	o.a.FusedBasisSteps(cols[:k], theta, mu, gamma, o.dinv)
	return true
}

// singleStepperOp is countingOp with only the one-column fused step
// (BasisStepper), the operator shape the kernel benchmarks hand Compute.
type singleStepperOp struct {
	countingOp
	dinv  []float64
	steps int
}

func (o *singleStepperOp) FusedBasisStep(sNext, u, sCur, sPrev []float64, theta, mu, gamma float64, uNext []float64) bool {
	o.steps++
	o.a.FusedBasisStepPar(sNext, u, sCur, sPrev, theta, mu, gamma, o.dinv, uNext)
	return true
}

// TestComputePairIsTwoComputes: CA-PCG's two chains — Q of degree s with a
// full-width U, R̂ of degree s−1 — come out of ComputePair bit for bit as out of
// two Compute calls, whether the operator pairs nothing, pairs products, or
// pairs fused steps; and the pairing makes s passes over the matrix where two
// Computes make 2s−1.
func TestComputePairIsTwoComputes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := sparse.Poisson2D(9, 7)
	n := a.Dim()
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	s := 5
	params, err := basis.New(basis.Chebyshev, s, 0.2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, r := randVec(rng, n), randVec(rng, n)
	p, u := make([]float64, n), make([]float64, n)
	m.Apply(p, q)
	m.Apply(u, r)
	chains := func() (Chain, Chain) {
		return Chain{W: q, U0: p, S: vec.NewBlock(n, s+1), U: vec.NewBlock(n, s+1)},
			Chain{W: r, U0: u, S: vec.NewBlock(n, s), U: vec.NewBlock(n, s)}
	}
	wq, wr := chains()
	for _, ch := range []Chain{wq, wr} {
		if err := Compute(&countingOp{a: a}, m, params, ch.W, ch.U0, ch.S, ch.U); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string, got, want *vec.Block) {
		t.Helper()
		for j := range want.Cols {
			for i := range want.Cols[j] {
				if math.Float64bits(got.Cols[j][i]) != math.Float64bits(want.Cols[j][i]) {
					t.Fatalf("%s: column %d row %d differs from Compute", what, j, i)
				}
			}
		}
	}
	plain, paired, fused := &countingOp{a: a}, &pairMulOp{countingOp: countingOp{a: a}}, &stepperOp{countingOp: countingOp{a: a}, dinv: m.InvDiag()}
	for name, op := range map[string]Operator{"plain": plain, "paired product": paired, "fused pair": fused} {
		gq, gr := chains()
		if err := ComputePair(op, m, params, gq, gr); err != nil {
			t.Fatal(err)
		}
		same(name+" Q", gq.S, wq.S)
		same(name+" P", gq.U, wq.U)
		same(name+" R̂", gr.S, wr.S)
		same(name+" U", gr.U, wr.U)
	}
	if plain.calls != 2*s-1 {
		t.Errorf("plain operator: %d products, want %d", plain.calls, 2*s-1)
	}
	if paired.pairs != s-1 || paired.calls != 1 {
		t.Errorf("paired product: %d paired and %d single products, want %d and 1", paired.pairs, paired.calls, s-1)
	}
	if fused.pair != s-1 || fused.singles != 1 || fused.calls != 0 {
		t.Errorf("fused pair: %d paired and %d single steps, %d products, want %d, 1, 0", fused.pair, fused.singles, fused.calls, s-1)
	}
}

// TestBasisStepperIsCompute: an operator with only the one-column fused step
// gives Compute's bits on both of CA-PCG's chains, one step per column and
// no plain product, alone or through ComputePair.
func TestBasisStepperIsCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := sparse.Poisson2D(9, 7)
	n := a.Dim()
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	const s = 4
	params, err := basis.New(basis.Chebyshev, s, 0.2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, r := randVec(rng, n), randVec(rng, n)
	chains := func() (Chain, Chain) {
		return Chain{W: q, S: vec.NewBlock(n, s+1), U: vec.NewBlock(n, s+1)},
			Chain{W: r, S: vec.NewBlock(n, s), U: vec.NewBlock(n, s)}
	}
	wq, wr := chains()
	for _, ch := range []Chain{wq, wr} {
		if err := Compute(&countingOp{a: a}, m, params, ch.W, nil, ch.S, ch.U); err != nil {
			t.Fatal(err)
		}
	}
	op := &singleStepperOp{countingOp: countingOp{a: a}, dinv: m.InvDiag()}
	gq, gr := chains()
	if err := Compute(op, m, params, gq.W, nil, gq.S, gq.U); err != nil {
		t.Fatal(err)
	}
	if err := ComputePair(op, m, params, gq, gr); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][2]*vec.Block{{gq.S, wq.S}, {gq.U, wq.U}, {gr.S, wr.S}, {gr.U, wr.U}} {
		for j := range b[1].Cols {
			for i, w := range b[1].Cols[j] {
				if math.Float64bits(b[0].Cols[j][i]) != math.Float64bits(w) {
					t.Fatalf("column %d row %d differs from Compute", j, i)
				}
			}
		}
	}
	if want := s + 2*s - 1; op.steps != want || op.calls != 0 {
		t.Errorf("%d fused steps and %d products, want %d and 0", op.steps, op.calls, want)
	}
}
