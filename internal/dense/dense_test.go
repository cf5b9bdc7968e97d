package dense

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randSPD returns BᵀB + n·I, guaranteed SPD.
func randSPD(rng *rand.Rand, n int) *Mat {
	b := randMat(rng, n, n)
	a := MatMul(b.T(), b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At")
	}
	m.Add(1, 2, 1)
	if m.At(1, 2) != 6 {
		t.Fatal("Add")
	}
	tt := m.T()
	if tt.R != 3 || tt.C != 2 || tt.At(2, 1) != 6 {
		t.Fatal("T")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone shares storage")
	}
	id := Eye(3)
	if id.At(0, 0) != 1 || id.At(0, 1) != 0 {
		t.Fatal("Eye")
	}
}

func TestFromRowMajorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRowMajor(2, 2, []float64{1, 2, 3})
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 4, 5)
	if d := MaxAbsDiff(MatMul(Eye(4), a), a); d > 1e-15 {
		t.Fatalf("I·A != A, diff %v", d)
	}
	if d := MaxAbsDiff(MatMul(a, Eye(5)), a); d > 1e-15 {
		t.Fatalf("A·I != A, diff %v", d)
	}
}

func TestMatMulAssociativityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a, b, c := randMat(r, n, n), randMat(r, n, n), randMat(r, n, n)
		lhs := MatMul(MatMul(a, b), c)
		rhs := MatMul(a, MatMul(b, c))
		return MaxAbsDiff(lhs, rhs) < 1e-9
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRowMajor(2, 2, []float64{1, 2, 3, 4})
	y := a.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestScaleAddMat(t *testing.T) {
	a := FromRowMajor(1, 2, []float64{1, 2})
	a.Scale(2)
	if a.At(0, 0) != 2 || a.At(0, 1) != 4 {
		t.Fatal("Scale")
	}
	a.AddMat(3, FromRowMajor(1, 2, []float64{1, 1}))
	if a.At(0, 0) != 5 || a.At(0, 1) != 7 {
		t.Fatal("AddMat")
	}
}

func TestSymmetrizeIsSymmetric(t *testing.T) {
	a := FromRowMajor(2, 2, []float64{1, 2, 4, 3})
	if a.IsSymmetric(1e-12) {
		t.Fatal("should not be symmetric")
	}
	a.Symmetrize()
	if !a.IsSymmetric(0) {
		t.Fatal("Symmetrize failed")
	}
	if a.At(0, 1) != 3 {
		t.Fatalf("Symmetrize value = %v", a.At(0, 1))
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 12, 25} {
		a := randSPD(rng, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		c, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d Cholesky: %v", n, err)
		}
		if err := c.Solve(b); err != nil {
			t.Fatal(err)
		}
		for i := range b {
			if math.Abs(b[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("n=%d Cholesky solve error at %d: %v vs %v", n, i, b[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRowMajor(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	if _, err := Cholesky(FromRowMajor(2, 3, make([]float64, 6))); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestCholeskySolveMat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPD(rng, 6)
	x := randMat(rng, 6, 3)
	b := MatMul(a, x)
	c, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SolveMat(b); err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(b, x); d > 1e-8 {
		t.Fatalf("SolveMat diff = %v", d)
	}
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 7, 15} {
		a := randMat(rng, n, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-7 {
				t.Fatalf("n=%d LU solve error at %d", n, i)
			}
		}
	}
}

func TestLUPivotingNeeded(t *testing.T) {
	// Zero in the (0,0) position requires a row swap.
	a := FromRowMajor(2, 2, []float64{0, 1, 1, 0})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("x = %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRowMajor(2, 2, []float64{1, 2, 2, 4})
	if _, err := LUFactor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if _, err := LUFactor(NewMat(2, 2)); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix err = %v, want ErrSingular", err)
	}
}

func TestLUDetInverse(t *testing.T) {
	a := FromRowMajor(2, 2, []float64{4, 7, 2, 6})
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-10) > 1e-12 {
		t.Fatalf("Det = %v, want 10", d)
	}
	inv := f.Inverse()
	if d := MaxAbsDiff(MatMul(a, inv), Eye(2)); d > 1e-12 {
		t.Fatalf("A·A⁻¹ diff = %v", d)
	}
}

func TestSolveSPDFallsBackToLU(t *testing.T) {
	// Symmetric indefinite: Cholesky fails, LU succeeds.
	a := FromRowMajor(2, 2, []float64{1, 2, 2, 1})
	x, err := SolveSPD(a, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestCond1(t *testing.T) {
	if c := Cond1(Eye(4)); math.Abs(c-1) > 1e-12 {
		t.Fatalf("Cond1(I) = %v", c)
	}
	sing := FromRowMajor(2, 2, []float64{1, 1, 1, 1})
	if c := Cond1(sing); !math.IsInf(c, 1) {
		t.Fatalf("Cond1(singular) = %v", c)
	}
}

func TestTridiagEigenKnown(t *testing.T) {
	// T = tridiag(-1, 2, -1) of size n has eigenvalues 2−2cos(kπ/(n+1)).
	n := 10
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	vals, err := TridiagEigen(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(vals[k-1]-want) > 1e-10 {
			t.Fatalf("eigenvalue %d = %v, want %v", k, vals[k-1], want)
		}
	}
	// Inputs must be unmodified.
	if d[0] != 2 || e[0] != -1 {
		t.Fatal("TridiagEigen modified inputs")
	}
}

func TestTridiagEigenEdge(t *testing.T) {
	vals, err := TridiagEigen([]float64{7}, nil)
	if err != nil || len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("1×1 = %v, %v", vals, err)
	}
	vals, err = TridiagEigen(nil, nil)
	if err != nil || vals != nil {
		t.Fatalf("empty = %v, %v", vals, err)
	}
	if _, err := TridiagEigen([]float64{1, 2}, nil); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestSymEigenMatchesTridiag(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 8
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64() * 3
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	a := NewMat(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, d[i])
		if i < n-1 {
			a.Set(i, i+1, e[i])
			a.Set(i+1, i, e[i])
		}
	}
	want, err := TridiagEigen(d, e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("eigenvalue %d: Jacobi %v vs QL %v", i, got[i], want[i])
		}
	}
}

func TestSymEigenTraceDetInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := randSPD(rng, n)
		vals, err := SymEigen(a)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += vals[i]
		}
		return math.Abs(trace-sum) < 1e-8*(1+math.Abs(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky L·Lᵀ reconstructs A.
func TestCholeskyReconstructQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		c, err := Cholesky(a)
		if err != nil {
			return false
		}
		l := FromRowMajor(n, n, c.l)
		recon := MatMul(l, l.T())
		return MaxAbsDiff(recon, a) < 1e-8*(1+a.NormFro())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
