package precond

import (
	"math"
	"math/rand"
	"testing"

	"spcg/internal/dense"
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

// applySymmetryCheck verifies xᵀM⁻¹y == yᵀM⁻¹x, required for PCG.
func applySymmetryCheck(t *testing.T, p Interface, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := p.Dim()
	x, y := randVec(rng, n), randVec(rng, n)
	mx, my := make([]float64, n), make([]float64, n)
	p.Apply(mx, x)
	p.Apply(my, y)
	l, r := vec.Dot(y, mx), vec.Dot(x, my)
	if math.Abs(l-r) > 1e-9*(1+math.Abs(l)) {
		t.Fatalf("%s: M⁻¹ not symmetric: %v vs %v", p.Name(), l, r)
	}
}

func TestIdentity(t *testing.T) {
	p := NewIdentity(3)
	src := []float64{1, 2, 3}
	dst := make([]float64, 3)
	p.Apply(dst, src)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatal("identity changed the vector")
		}
	}
	if p.Name() != "identity" || p.Flops() != 0 || p.HaloExchanges() != 0 || p.Dim() != 3 {
		t.Fatal("identity metadata")
	}
}

func TestJacobi(t *testing.T) {
	a := sparse.Poisson2D(5, 5) // diagonal = 4
	p, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, a.Dim())
	vec.Fill(src, 8)
	dst := make([]float64, a.Dim())
	p.Apply(dst, src)
	for _, v := range dst {
		if v != 2 {
			t.Fatalf("Jacobi apply = %v, want 2", v)
		}
	}
	applySymmetryCheck(t, p, 1)
	if p.HaloExchanges() != 0 {
		t.Fatal("Jacobi should need no communication")
	}
}

func TestJacobiRejectsBadDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	if _, err := NewJacobi(coo.ToCSR()); err == nil {
		t.Fatal("expected error for negative diagonal")
	}
}

// chebT evaluates the Chebyshev polynomial T_d(x) (|x| may exceed 1).
func chebT(d int, x float64) float64 {
	switch {
	case x >= 1:
		return math.Cosh(float64(d) * math.Acosh(x))
	case x <= -1:
		s := 1.0
		if d%2 == 1 {
			s = -1
		}
		return s * math.Cosh(float64(d)*math.Acosh(-x))
	default:
		return math.Cos(float64(d) * math.Acos(x))
	}
}

func TestChebyshevMatchesAnalyticPolynomial(t *testing.T) {
	// Poisson1D has known eigenpairs v_k(i) = sin(kπ(i+1)/(n+1)),
	// λ_k = 2−2cos(kπ/(n+1)). Degree-d Chebyshev iteration from a zero guess
	// has residual polynomial σ_d(λ) = T_d((θ−λ)/δ)/T_d(θ/δ), so the applied
	// operator is (1−σ_d(λ))/λ on each eigencomponent. Check Apply against
	// that closed form.
	n := 20
	a := sparse.Poisson1D(n)
	lambda := func(k int) float64 { return 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1)) }
	lo, hi := lambda(1), lambda(n)
	rng := rand.New(rand.NewSource(2))
	r := randVec(rng, n)
	theta, del := (hi+lo)/2, (hi-lo)/2
	for _, deg := range []int{1, 2, 3, 5, 8} {
		p, err := NewChebyshev(a, deg, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		z := make([]float64, n)
		p.Apply(z, r)
		want := make([]float64, n)
		for k := 1; k <= n; k++ {
			lam := lambda(k)
			sigma := chebT(deg, (theta-lam)/del) / chebT(deg, theta/del)
			// Eigenvector (normalized): sqrt(2/(n+1))·sin(kπ(i+1)/(n+1)).
			var proj float64
			for i := 0; i < n; i++ {
				proj += math.Sin(float64(k)*math.Pi*float64(i+1)/float64(n+1)) * r[i]
			}
			proj *= 2 / float64(n+1)
			coeff := (1 - sigma) / lam * proj
			for i := 0; i < n; i++ {
				want[i] += coeff * math.Sin(float64(k)*math.Pi*float64(i+1)/float64(n+1))
			}
		}
		for i := range want {
			if math.Abs(z[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("degree %d entry %d: Apply %v vs analytic %v", deg, i, z[i], want[i])
			}
		}
	}
}

func TestChebyshevApproximatesInverse(t *testing.T) {
	n := 20
	a := sparse.Poisson1D(n)
	lo := 2 - 2*math.Cos(math.Pi/float64(n+1))
	hi := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	rng := rand.New(rand.NewSource(2))
	r := randVec(rng, n)
	// Exact solve via dense Cholesky.
	d := dense.FromRowMajor(n, n, a.Dense())
	chol, err := dense.Cholesky(d)
	if err != nil {
		t.Fatal(err)
	}
	exact := append([]float64(nil), r...)
	if err := chol.Solve(exact); err != nil {
		t.Fatal(err)
	}
	kappa := hi / lo
	rate := (math.Sqrt(kappa) - 1) / (math.Sqrt(kappa) + 1)
	for _, deg := range []int{5, 15, 40} {
		p, err := NewChebyshev(a, deg, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		z := make([]float64, n)
		p.Apply(z, r)
		diff := make([]float64, n)
		vec.Sub(diff, z, exact)
		e := vec.Norm2(diff) / vec.Norm2(exact)
		// 2-norm error is bounded by √κ times the A-norm bound 2·rate^deg.
		bound := 2 * math.Sqrt(kappa) * math.Pow(rate, float64(deg))
		if e > bound {
			t.Fatalf("degree %d error %v exceeds Chebyshev bound %v", deg, e, bound)
		}
	}
}

func TestChebyshevIsLinearAndSymmetric(t *testing.T) {
	a := sparse.Poisson2D(6, 6)
	p, err := NewChebyshev(a, 3, 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	applySymmetryCheck(t, p, 3)
	rng := rand.New(rand.NewSource(4))
	n := a.Dim()
	x, y := randVec(rng, n), randVec(rng, n)
	alpha := 0.7
	xy := make([]float64, n)
	vec.XpayInto(xy, x, alpha, y)
	mxy := make([]float64, n)
	p.Apply(mxy, xy)
	mx, my := make([]float64, n), make([]float64, n)
	p.Apply(mx, x)
	p.Apply(my, y)
	for i := range mxy {
		want := mx[i] + alpha*my[i]
		if math.Abs(mxy[i]-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatal("Chebyshev preconditioner is not a fixed linear operator")
		}
	}
	if p.Name() != "chebyshev(3)" || p.HaloExchanges() != 2 {
		t.Fatalf("metadata: %s %d", p.Name(), p.HaloExchanges())
	}
}

func TestChebyshevParamValidation(t *testing.T) {
	a := sparse.Poisson1D(5)
	if _, err := NewChebyshev(a, 0, 1, 2); err == nil {
		t.Fatal("degree 0 accepted")
	}
	if _, err := NewChebyshev(a, 2, 2, 1); err == nil {
		t.Fatal("inverted interval accepted")
	}
	if _, err := NewChebyshev(a, 2, -1, 1); err == nil {
		t.Fatal("non-positive λmin accepted")
	}
}

func TestBlockJacobiOneBlockIsExact(t *testing.T) {
	a := sparse.Poisson1D(30)
	p, err := NewBlockJacobi(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	r := randVec(rng, a.Dim())
	z := make([]float64, a.Dim())
	p.Apply(z, r)
	// A·z should equal r.
	az := make([]float64, a.Dim())
	a.MulVec(az, z)
	for i := range az {
		if math.Abs(az[i]-r[i]) > 1e-8 {
			t.Fatalf("one-block BlockJacobi is not the exact inverse at %d", i)
		}
	}
}

func TestBlockJacobiManyBlocksIsJacobiLike(t *testing.T) {
	// With n blocks of size 1 BlockJacobi degenerates to Jacobi.
	a := sparse.Poisson1D(16)
	bj, err := NewBlockJacobi(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	r := randVec(rng, 16)
	z1, z2 := make([]float64, 16), make([]float64, 16)
	bj.Apply(z1, r)
	j.Apply(z2, r)
	for i := range z1 {
		if math.Abs(z1[i]-z2[i]) > 1e-12 {
			t.Fatalf("n-block BlockJacobi != Jacobi at %d", i)
		}
	}
	applySymmetryCheck(t, bj, 7)
}

func TestBlockJacobiErrors(t *testing.T) {
	a := sparse.Poisson1D(10)
	if _, err := NewBlockJacobi(a, 0); err == nil {
		t.Fatal("0 blocks accepted")
	}
	big := sparse.Poisson1D(5000)
	if _, err := NewBlockJacobi(big, 1); err == nil {
		t.Fatal("oversized block accepted")
	}
}

func TestSSORMatchesDenseDefinition(t *testing.T) {
	a := sparse.Poisson2D(4, 4)
	n := a.Dim()
	omega := 1.3
	p, err := NewSSOR(a, omega)
	if err != nil {
		t.Fatal(err)
	}
	// Dense M = (2−ω)⁻¹·(D/ω + L)·(D/ω)⁻¹·(D/ω + U).
	ad := a.Dense()
	dm := dense.NewMat(n, n)
	lm := dense.NewMat(n, n)
	um := dense.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := ad[i*n+j]
			switch {
			case i == j:
				dm.Set(i, j, v/omega)
			case i > j:
				lm.Set(i, j, v)
			default:
				um.Set(i, j, v)
			}
		}
	}
	dl := dm.Clone()
	dl.AddMat(1, lm)
	du := dm.Clone()
	du.AddMat(1, um)
	dinv := dense.NewMat(n, n)
	for i := 0; i < n; i++ {
		dinv.Set(i, i, 1/dm.At(i, i))
	}
	m := dense.MatMul(dense.MatMul(dl, dinv), du)
	m.Scale(1 / (2 - omega))
	rng := rand.New(rand.NewSource(8))
	r := randVec(rng, n)
	z := make([]float64, n)
	p.Apply(z, r)
	// M·z must equal r.
	mz := m.MulVec(z)
	for i := range mz {
		if math.Abs(mz[i]-r[i]) > 1e-9*(1+math.Abs(r[i])) {
			t.Fatalf("SSOR apply disagrees with dense definition at %d: %v vs %v", i, mz[i], r[i])
		}
	}
	applySymmetryCheck(t, p, 9)
}

func TestSSORValidation(t *testing.T) {
	a := sparse.Poisson1D(5)
	for _, w := range []float64{0, 2, -1} {
		if _, err := NewSSOR(a, w); err == nil {
			t.Fatalf("omega %v accepted", w)
		}
	}
}

func TestIC0ExactOnTridiagonal(t *testing.T) {
	// IC(0) of a tridiagonal matrix has no dropped fill: exact Cholesky.
	a := sparse.Poisson1D(25)
	p, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	r := randVec(rng, a.Dim())
	z := make([]float64, a.Dim())
	p.Apply(z, r)
	az := make([]float64, a.Dim())
	a.MulVec(az, z)
	for i := range az {
		if math.Abs(az[i]-r[i]) > 1e-8 {
			t.Fatalf("IC0 on tridiagonal is not exact at %d", i)
		}
	}
}

func TestIC0OnGridIsSymmetricAndUseful(t *testing.T) {
	a := sparse.Poisson2D(7, 7)
	p, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	applySymmetryCheck(t, p, 11)
	// The preconditioned operator must reduce the condition number.
	n := a.Dim()
	ma := dense.NewMat(n, n)
	col := make([]float64, n)
	e := make([]float64, n)
	zcol := make([]float64, n)
	for j := 0; j < n; j++ {
		vec.Zero(e)
		e[j] = 1
		a.MulVec(col, e)
		p.Apply(zcol, col)
		for i := 0; i < n; i++ {
			ma.Set(i, j, zcol[i])
		}
	}
	// Spectrum of M⁻¹A (similar to SPD (L⁻¹)A(L⁻ᵀ)) must be tighter than A's.
	vals, err := dense.SymEigen(symmetrizePart(ma))
	if err != nil {
		t.Fatal(err)
	}
	condPrec := vals[len(vals)-1] / vals[0]
	avals, err := dense.SymEigen(dense.FromRowMajor(n, n, a.Dense()))
	if err != nil {
		t.Fatal(err)
	}
	condA := avals[len(avals)-1] / avals[0]
	if condPrec > condA/2 {
		t.Fatalf("IC0 barely helps: κ(M⁻¹A)=%v vs κ(A)=%v", condPrec, condA)
	}
}

func symmetrizePart(m *dense.Mat) *dense.Mat {
	s := m.Clone()
	s.Symmetrize()
	return s
}

func TestIC0Errors(t *testing.T) {
	coo := sparse.NewCOO(2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if _, err := NewIC0(coo.ToCSR()); err == nil {
		t.Fatal("missing diagonal accepted")
	}
}

// TestDiagonalInversesBitwise: Jacobi and SSOR invert the diagonal Diag
// returns in place, so each stored inverse is bitwise 1/Diag()[i].
func TestDiagonalInversesBitwise(t *testing.T) {
	a := sparse.VarCoeff2D(9, 7, 2, 3)
	d := a.Diag()
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	ssor, err := NewSSOR(a, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	for name, inv := range map[string][]float64{"jacobi": jac.InvDiag(), "ssor": ssor.invDiag} {
		if len(inv) != len(d) {
			t.Fatalf("%s: %d inverses for n=%d", name, len(inv), len(d))
		}
		for i, v := range d {
			//spcglint:ignore floatcmp the inverse is one division of the same operand
			if inv[i] != 1/v {
				t.Fatalf("%s: inverse[%d] = %v, want 1/%v", name, i, inv[i], v)
			}
		}
	}
}
