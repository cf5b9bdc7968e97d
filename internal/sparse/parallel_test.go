package sparse

import (
	"math"
	"math/rand"
	"testing"

	"spcg/internal/pool"
	"spcg/internal/vec"
)

// TestMulBlockParColumnExact pins the batched SpMV contract the solve
// service's coalesced solves rely on: every column of MulBlockPar must be
// bitwise identical to a per-column sequential MulVec, for column counts
// below, at and above the pool's worker count and the four-column group
// size, on a matrix large enough to take the parallel path.
func TestMulBlockParColumnExact(t *testing.T) {
	a := Poisson2D(96, 96) // nnz ≈ 45k > parSpMVThreshold
	n := a.Dim()
	rng := rand.New(rand.NewSource(42))
	for _, s := range []int{1, 2, 3, 8, 17} {
		x := vec.NewBlock(n, s)
		for j := 0; j < s; j++ {
			col := x.Col(j)
			for i := range col {
				col[i] = rng.NormFloat64()
			}
		}
		got := vec.NewBlock(n, s)
		a.MulBlockPar(got, x)
		want := make([]float64, n)
		for j := 0; j < s; j++ {
			a.MulVec(want, x.Col(j))
			for i := 0; i < n; i++ {
				if got.Col(j)[i] != want[i] {
					t.Fatalf("s=%d: column %d row %d: MulBlockPar %v != MulVec %v",
						s, j, i, got.Col(j)[i], want[i])
				}
			}
		}
	}
}

// TestMulVecParMatchesMulVec: the pool-dispatched SpMV partitions rows only,
// so it must be bitwise identical to the sequential kernel.
func TestMulVecParMatchesMulVec(t *testing.T) {
	a := VarCoeff2D(90, 90, 3, 11)
	n := a.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	seq := make([]float64, n)
	par := make([]float64, n)
	a.MulVec(seq, x)
	a.MulVecPar(par, x)
	for i := range seq {
		if par[i] != seq[i] {
			t.Fatalf("row %d: MulVecPar %v != MulVec %v", i, par[i], seq[i])
		}
	}
}

// TestFusedBasisStepParMatchesUnfused checks the fused
// SpMV + three-term + diagonal-apply kernel against the three separate
// sweeps it replaces.
func TestFusedBasisStepParMatchesUnfused(t *testing.T) {
	a := Poisson2D(80, 80)
	n := a.Dim()
	rng := rand.New(rand.NewSource(5))
	u := make([]float64, n)
	sCur := make([]float64, n)
	sPrev := make([]float64, n)
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		u[i] = rng.NormFloat64()
		sCur[i] = rng.NormFloat64()
		sPrev[i] = rng.NormFloat64()
		dinv[i] = 0.1 + rng.Float64()
	}
	theta, mu, gamma := 1.7, -0.4, 2.3

	z := make([]float64, n)
	wantS := make([]float64, n)
	wantU := make([]float64, n)
	a.MulVec(z, u)
	vec.Threeterm(wantS, z, theta, sCur, mu, sPrev, gamma)
	vec.HadamardInto(wantU, dinv, wantS)

	gotS := make([]float64, n)
	gotU := make([]float64, n)
	a.FusedBasisStepPar(gotS, u, sCur, sPrev, theta, mu, gamma, dinv, gotU)
	for i := 0; i < n; i++ {
		if d := math.Abs(gotS[i] - wantS[i]); d > 1e-14*(1+math.Abs(wantS[i])) {
			t.Fatalf("sNext[%d]: fused %v vs unfused %v", i, gotS[i], wantS[i])
		}
		if d := math.Abs(gotU[i] - wantU[i]); d > 1e-14*(1+math.Abs(wantU[i])) {
			t.Fatalf("uNext[%d]: fused %v vs unfused %v", i, gotU[i], wantU[i])
		}
	}

	// First-step form: sPrev nil, no uNext.
	vec.Threeterm(wantS, z, theta, sCur, 0, nil, gamma)
	a.FusedBasisStepPar(gotS, u, sCur, nil, theta, 0, gamma, dinv, nil)
	for i := 0; i < n; i++ {
		if d := math.Abs(gotS[i] - wantS[i]); d > 1e-14*(1+math.Abs(wantS[i])) {
			t.Fatalf("first-step sNext[%d]: fused %v vs unfused %v", i, gotS[i], wantS[i])
		}
	}
}

// TestBalancedRangesCached: repeated pool kernels on one matrix must reuse
// the cached partition rather than recomputing the O(n) split per call.
func TestBalancedRangesCached(t *testing.T) {
	a := Poisson2D(64, 64)
	b1 := a.balancedRanges(4)
	b2 := a.balancedRanges(4)
	if &b1[0] != &b2[0] {
		t.Fatal("partition not cached for repeated worker count")
	}
	b3 := a.balancedRanges(7)
	if len(b3) != 8 {
		t.Fatalf("unexpected bounds length %d", len(b3))
	}
	if again := a.balancedRanges(4); &again[0] != &b1[0] {
		t.Fatal("cache evicted an entry while under capacity")
	}
}

// kernelClasses is one matrix of every gen.go class, each large enough for the
// pooled path (nnz ≥ parSpMVThreshold), plus the two shapes generators never
// produce: rows with no stored entry at all, and a matrix small enough that
// the kernels stay inline.
func kernelClasses() map[string]*CSR {
	spectrum := make([]float64, 400)
	for i := range spectrum {
		spectrum[i] = 1 + float64(i)
	}
	// Every third row empty, the rest a shifted tridiagonal pattern; the
	// kernels never look at symmetry.
	n := 18000
	holes := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		if i%3 != 1 {
			for _, j := range []int{i - 2, i, i + 5} {
				if j >= 0 && j < n {
					holes.ColIdx = append(holes.ColIdx, j)
					holes.Val = append(holes.Val, 1+float64((i+j)%7)/3)
				}
			}
		}
		holes.RowPtr[i+1] = len(holes.Val)
	}
	return map[string]*CSR{
		"poisson1d":   Poisson1D(12000),
		"poisson2d":   Poisson2D(96, 96),
		"poisson3d":   Poisson3D(18, 18, 18),
		"poisson3d27": Poisson3D27(12, 12, 12),
		"aniso2d":     Anisotropic2D(90, 90, 1e-2),
		"varcoeff2d":  VarCoeff2D(90, 90, 3, 11),
		"varcoeff3d":  VarCoeff3D(18, 18, 18, 2, 5),
		"randgraph":   RandomGraphLaplacian(5000, 6, 0.5, 2),
		"hubgraph":    HubGraphLaplacian(4096, 4, 64, 200, 0.5, 3),
		"circuit":     CircuitLaplacian(90, 90, 400, 0.1, 7),
		"spectrum":    SPDWithSpectrum(spectrum, 4000, 9),
		"emptyrows":   holes,
		"inline":      Poisson2D(20, 20),
	}
}

// TestMulBlockParEveryColumnIsMulVec is the multi-vector kernel's contract:
// for every matrix class, every column count around the four-accumulator
// group size and every pool width, each column of MulBlockPar is MulVec on
// that column bit for bit — for CSR's one-pass kernel and SELL's grid alike.
func TestMulBlockParEveryColumnIsMulVec(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	rng := rand.New(rand.NewSource(7))
	for name, a := range kernelClasses() {
		if name != "inline" && a.NNZ() < parSpMVThreshold {
			t.Fatalf("%s: nnz %d stays inline; grow it", name, a.NNZ())
		}
		n := a.Dim()
		formats := map[string]Matrix{"csr": a, "sell": SELLFromCSR(a, 0, 0)}
		for _, k := range []int{1, 2, 3, 4, 5, 8} {
			x, got := vec.NewBlock(n, k), vec.NewBlock(n, k)
			for j := 0; j < k; j++ {
				for i := range x.Col(j) {
					x.Col(j)[i] = rng.NormFloat64()
				}
			}
			want := vec.NewBlock(n, k)
			for j := 0; j < k; j++ {
				a.MulVec(want.Col(j), x.Col(j))
			}
			for _, workers := range []int{1, 2, 4} {
				pool.SetDefaultWorkers(workers)
				for format, m := range formats {
					for j := 0; j < k; j++ {
						for i := range got.Col(j) {
							got.Col(j)[i] = math.NaN()
						}
					}
					m.MulBlockPar(got, x)
					for j := 0; j < k; j++ {
						for i, w := range want.Col(j) {
							if math.Float64bits(got.Col(j)[i]) != math.Float64bits(w) {
								t.Fatalf("%s/%s k=%d workers=%d: column %d row %d: %v, MulVec %v",
									name, format, k, workers, j, i, got.Col(j)[i], w)
							}
						}
					}
				}
			}
		}
	}
}

// TestMulBlockParRejectsBadOperands: a column-count or dimension mismatch and
// a destination column that is also an operand column panic instead of
// producing a silently wrong product.
func TestMulBlockParRejectsBadOperands(t *testing.T) {
	a := Poisson2D(8, 8)
	n := a.Dim()
	shared := make([]float64, n)
	cases := map[string][2]*vec.Block{
		"column count": {vec.NewBlock(n, 2), vec.NewBlock(n, 3)},
		"dst rows":     {vec.NewBlock(n-1, 2), vec.NewBlock(n, 2)},
		"x rows":       {vec.NewBlock(n, 2), vec.NewBlock(n+1, 2)},
		"short column": {vec.NewBlock(n, 1), {N: n, Cols: [][]float64{make([]float64, n-1)}}},
		"aliased": {
			{N: n, Cols: [][]float64{make([]float64, n), shared}},
			{N: n, Cols: [][]float64{shared, make([]float64, n)}},
		},
	}
	for name, c := range cases {
		for format, m := range map[string]Matrix{"csr": a, "sell": SELLFromCSR(a, 0, 0)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s/%s: no panic", name, format)
					}
				}()
				m.MulBlockPar(c[0], c[1])
			}()
		}
	}
	// Zero columns is a no-op, not an error.
	a.MulBlockPar(vec.NewBlock(n, 0), vec.NewBlock(n, 0))
}

// TestFusedBasisStepPar2IsTwoSingleSteps: each column of the paired basis step
// is, bit for bit, FusedBasisStepPar on that column — for every matrix class,
// on one, two and four workers, with sPrev and uNext present, absent, or
// present for one column only.
func TestFusedBasisStepPar2IsTwoSingleSteps(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	rng := rand.New(rand.NewSource(8))
	theta, mu, gamma := 1.7, -0.4, 2.3
	for name, a := range kernelClasses() {
		n := a.Dim()
		in := make([][]float64, 6) // u0, u1, sCur0, sCur1, sPrev0, sPrev1
		for k := range in {
			in[k] = make([]float64, n)
			for i := range in[k] {
				in[k][i] = rng.NormFloat64()
			}
		}
		dinv := make([]float64, n)
		for i := range dinv {
			dinv[i] = 0.1 + rng.Float64()
		}
		u, sCur := [2][]float64{in[0], in[1]}, [2][]float64{in[2], in[3]}
		for _, shape := range []struct {
			name          string
			prev, outputs [2]bool
		}{
			{"both full", [2]bool{true, true}, [2]bool{true, true}},
			{"first step", [2]bool{false, false}, [2]bool{true, true}},
			{"no uNext", [2]bool{true, true}, [2]bool{false, false}},
			{"mixed", [2]bool{true, false}, [2]bool{false, true}},
		} {
			var sPrev, wantU [2][]float64
			var wantS [2][]float64
			for j := range 2 {
				if shape.prev[j] {
					sPrev[j] = in[4+j]
				}
				wantS[j] = make([]float64, n)
				if shape.outputs[j] {
					wantU[j] = make([]float64, n)
				}
				a.FusedBasisStepPar(wantS[j], u[j], sCur[j], sPrev[j], theta, mu, gamma, dinv, wantU[j])
			}
			for _, workers := range []int{1, 2, 4} {
				pool.SetDefaultWorkers(workers)
				var gotS, gotU [2][]float64
				for j := range 2 {
					gotS[j] = make([]float64, n)
					if shape.outputs[j] {
						gotU[j] = make([]float64, n)
					}
				}
				a.FusedBasisStepPar2(gotS, u, sCur, sPrev, theta, mu, gamma, dinv, gotU)
				for j := range 2 {
					for i := 0; i < n; i++ {
						if math.Float64bits(gotS[j][i]) != math.Float64bits(wantS[j][i]) ||
							(wantU[j] != nil && math.Float64bits(gotU[j][i]) != math.Float64bits(wantU[j][i])) {
							t.Fatalf("%s, %s, %d workers: column %d row %d differs from the single step", name, shape.name, workers, j, i)
						}
					}
				}
			}
		}
	}
}
