package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spcg/internal/vec"
)

func denseMulVec(d []float64, n int, x []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += d[i*n+j] * x[j]
		}
		y[i] = s
	}
	return y
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestPoisson1DStructure(t *testing.T) {
	a := Poisson1D(5)
	if a.N != 5 || a.NNZ() != 13 {
		t.Fatalf("n=%d nnz=%d", a.N, a.NNZ())
	}
	if a.At(0, 0) != 2 || a.At(0, 1) != -1 || a.At(0, 2) != 0 || a.At(2, 1) != -1 {
		t.Fatal("wrong entries")
	}
	if !a.IsSymmetric(0) {
		t.Fatal("not symmetric")
	}
}

func TestPoisson1DEigenBounds(t *testing.T) {
	a := Poisson1D(50)
	lo, hi := a.Gershgorin()
	if lo > 0 || hi < 4 {
		t.Fatalf("Gershgorin [%v,%v], want [≤0, ≥4]", lo, hi)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range []*CSR{Poisson1D(17), Poisson2D(5, 7), Poisson3D(3, 4, 5), Anisotropic2D(6, 6, 0.01), Poisson3D27(3, 3, 3)} {
		d := a.Dense()
		x := randVec(rng, a.N)
		want := denseMulVec(d, a.N, x)
		got := make([]float64, a.N)
		a.MulVec(got, x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d row %d: %v vs %v", a.N, i, got[i], want[i])
			}
		}
	}
}

func TestMulVecRowsMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Poisson2D(8, 9)
	x := randVec(rng, a.N)
	full := make([]float64, a.N)
	a.MulVec(full, x)
	part := make([]float64, a.N)
	a.MulVecRows(part, x, 10, 30)
	for i := 10; i < 30; i++ {
		if part[i] != full[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestMulVecParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Poisson3D(20, 20, 20) // nnz ≈ 54k > threshold
	x := randVec(rng, a.N)
	want := make([]float64, a.N)
	a.MulVec(want, x)
	got := make([]float64, a.N)
	a.MulVecPar(got, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: par %v vs seq %v", i, got[i], want[i])
		}
	}
}

func TestNNZBalancedRanges(t *testing.T) {
	a := Poisson2D(30, 30)
	for _, p := range []int{1, 2, 7, 16} {
		b := NNZBalancedRanges(a, p)
		if len(b) != p+1 || b[0] != 0 || b[p] != a.N {
			t.Fatalf("p=%d bounds=%v", p, b)
		}
		for w := 0; w < p; w++ {
			if b[w] > b[w+1] {
				t.Fatalf("p=%d non-monotone bounds %v", p, b)
			}
		}
		// Balance: each range within 2× of average nnz (for this regular matrix).
		avg := float64(a.NNZ()) / float64(p)
		for w := 0; w < p; w++ {
			nnz := a.RowPtr[b[w+1]] - a.RowPtr[b[w]]
			if float64(nnz) > 2*avg+float64(a.MaxRowNNZ()) {
				t.Fatalf("p=%d range %d holds %d nnz, avg %v", p, w, nnz, avg)
			}
		}
	}
}

func TestDiag(t *testing.T) {
	a := Poisson2D(4, 4)
	d := a.Diag()
	for i, v := range d {
		if v != 4 {
			t.Fatalf("diag[%d] = %v", i, v)
		}
	}
}

func TestAddDiagScale(t *testing.T) {
	a := Poisson1D(4)
	a.AddDiag(1)
	if a.At(0, 0) != 3 {
		t.Fatal("AddDiag")
	}
	a.Scale(2)
	if a.At(0, 0) != 6 || a.At(0, 1) != -2 {
		t.Fatal("Scale")
	}
}

func TestCOOBuildsSortedDedupedCSR(t *testing.T) {
	coo := NewCOO(3)
	coo.Add(2, 1, 5)
	coo.Add(0, 0, 1)
	coo.Add(2, 1, 5) // duplicate: summed
	coo.Add(2, 0, 3)
	coo.AddSym(0, 2, 7)
	a := coo.ToCSR()
	if a.At(2, 1) != 10 {
		t.Fatalf("duplicate not summed: %v", a.At(2, 1))
	}
	if a.At(0, 2) != 7 || a.At(2, 0) != 10 { // 3 + 7 from AddSym
		t.Fatalf("AddSym wrong: %v %v", a.At(0, 2), a.At(2, 0))
	}
	// Columns sorted per row.
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k-1] >= a.ColIdx[k] {
				t.Fatal("columns not sorted")
			}
		}
	}
}

func TestGeneratorsSymmetricSPDish(t *testing.T) {
	gens := map[string]*CSR{
		"poisson2d":  Poisson2D(7, 6),
		"poisson3d":  Poisson3D(4, 3, 5),
		"poisson27":  Poisson3D27(4, 4, 4),
		"aniso":      Anisotropic2D(8, 8, 1e-2),
		"varcoeff":   VarCoeff2D(8, 8, 3, 42),
		"graphlap":   RandomGraphLaplacian(100, 3, 0.1, 7),
		"randomspec": SPDWithSpectrum(GeometricSpectrum(40, 1e-3, 1e5), 120, 11),
	}
	for name, a := range gens {
		if !a.IsSymmetric(1e-12) {
			t.Errorf("%s: not symmetric", name)
		}
		lo, _ := a.Gershgorin()
		if name != "randomspec" && lo < -1e-12 {
			t.Errorf("%s: Gershgorin lower bound %v < 0 (not diagonally dominant)", name, lo)
		}
		// All rows must have a stored diagonal.
		d := a.Diag()
		for i, v := range d {
			if v <= 0 {
				t.Errorf("%s: diag[%d] = %v ≤ 0", name, i, v)
				break
			}
		}
	}
}

func TestSPDWithSpectrumPreservesEigenvalues(t *testing.T) {
	// Trace and Frobenius norm are rotation invariants.
	spec := GeometricSpectrum(30, 0.5, 1e4)
	a := SPDWithSpectrum(spec, 90, 3)
	var trace, wantTrace, fro2, wantFro2 float64
	for _, v := range spec {
		wantTrace += v
		wantFro2 += v * v
	}
	for i := 0; i < a.N; i++ {
		trace += a.At(i, i)
	}
	for _, v := range a.Val {
		fro2 += v * v
	}
	if math.Abs(trace-wantTrace) > 1e-8*wantTrace {
		t.Fatalf("trace %v, want %v", trace, wantTrace)
	}
	if math.Abs(fro2-wantFro2) > 1e-8*wantFro2 {
		t.Fatalf("fro² %v, want %v", fro2, wantFro2)
	}
}

func TestGeometricSpectrum(t *testing.T) {
	s := GeometricSpectrum(5, 2, 16)
	if s[0] != 2 || math.Abs(s[4]-32) > 1e-12 {
		t.Fatalf("spectrum = %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("not increasing")
		}
	}
}

func TestVarCoeffDeterministic(t *testing.T) {
	a := VarCoeff2D(6, 6, 4, 99)
	b := VarCoeff2D(6, 6, 4, 99)
	if a.NNZ() != b.NNZ() {
		t.Fatal("nondeterministic structure")
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatal("nondeterministic values")
		}
	}
	c := VarCoeff2D(6, 6, 4, 100)
	same := true
	for i := range a.Val {
		if a.Val[i] != c.Val[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed has no effect")
	}
}

// Property: SpMV is linear: A(x+αy) == Ax + αAy.
func TestMulVecLinearityQuick(t *testing.T) {
	a := Poisson2D(6, 5)
	f := func(seed int64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		x, y := randVec(rng, a.N), randVec(rng, a.N)
		xy := make([]float64, a.N)
		vec.XpayInto(xy, x, alpha, y)
		lhs := make([]float64, a.N)
		a.MulVec(lhs, xy)
		ax := make([]float64, a.N)
		ay := make([]float64, a.N)
		a.MulVec(ax, x)
		a.MulVec(ay, y)
		for i := range lhs {
			want := ax[i] + alpha*ay[i]
			if math.Abs(lhs[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetry of generated matrices implies xᵀAy == yᵀAx.
func TestSymmetryBilinearQuick(t *testing.T) {
	a := VarCoeff2D(7, 7, 2, 5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := randVec(rng, a.N), randVec(rng, a.N)
		ax := make([]float64, a.N)
		ay := make([]float64, a.N)
		a.MulVec(ax, x)
		a.MulVec(ay, y)
		l, r := vec.Dot(y, ax), vec.Dot(x, ay)
		return math.Abs(l-r) < 1e-9*(1+math.Abs(l))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
