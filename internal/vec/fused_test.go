package vec

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"spcg/internal/pool"
)

// relErrAt returns |a−b| relative to the given problem scale (clamped at 1):
// the 1e-13 property is stated against the backward-error scale Σ|x||y| of
// the summation, since the exact value itself can be heavily cancelled.
func relErrAt(a, b, scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) / scale
}

// relErr returns |a−b| / max(1, |b|).
func relErr(a, b float64) float64 {
	return relErrAt(a, b, math.Abs(b))
}

// absDot returns Σ|a_i||b_i|, the natural scale of a dot product.
func absDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i]) * math.Abs(b[i])
	}
	return s
}

// TestGramFusedMatchesNaive: the fused cache-blocked Gram must agree with the
// s²-Dot formulation within 1e-13 relative error on random tall-skinny
// blocks, across sizes that exercise the sequential, tiled and pooled paths.
func TestGramFusedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, sa, sb int }{
		{17, 3, 4}, {1000, 5, 6}, {1 << 15, 8, 9}, {100_003, 11, 4},
	} {
		x := randBlock(rng, tc.n, tc.sa)
		y := randBlock(rng, tc.n, tc.sb)
		want := Gram(x, y)
		got := GramFused(x, y)
		for i := 0; i < tc.sa; i++ {
			for j := 0; j < tc.sb; j++ {
				scale := absDot(x.Cols[i], y.Cols[j])
				if e := relErrAt(got[i*tc.sb+j], want[i*tc.sb+j], scale); e > 1e-13 {
					t.Fatalf("n=%d sa=%d sb=%d: entry (%d,%d) differs by %.3g (fused %v, naive %v)",
						tc.n, tc.sa, tc.sb, i, j, e, got[i*tc.sb+j], want[i*tc.sb+j])
				}
			}
		}
	}
}

func TestGramVecFusedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{33, 5000, 1 << 16} {
		x := randBlock(rng, n, 7)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		want := GramVec(x, v)
		got := GramVecFused(x, v)
		for i := range want {
			if e := relErrAt(got[i], want[i], absDot(x.Cols[i], v)); e > 1e-13 {
				t.Fatalf("n=%d: entry %d differs by %.3g", n, i, e)
			}
		}
	}
}

// TestCombineFusedMatchesNaive: the single-sweep block combines must match
// the s-Axpy formulations within 1e-13.
func TestCombineFusedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ n, s int }{
		{13, 1}, {13, 2}, {13, 3}, {500, 4}, {500, 5}, {1 << 15, 8}, {70_001, 10},
	} {
		x := randBlock(rng, tc.n, tc.s)
		c := make([]float64, tc.s)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		want := make([]float64, tc.n)
		x.MulVec(want, c)
		got := make([]float64, tc.n)
		x.CombineFused(got, c)
		for i := range want {
			if e := relErr(got[i], want[i]); e > 1e-13 {
				t.Fatalf("CombineFused n=%d s=%d: row %d differs by %.3g", tc.n, tc.s, i, e)
			}
		}

		// dst += X·c and dst −= X·c against MulVecAdd / MulVecSub.
		base := make([]float64, tc.n)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		wantAdd := append([]float64(nil), base...)
		x.MulVecAdd(wantAdd, c)
		gotAdd := append([]float64(nil), base...)
		x.AddScaledFused(gotAdd, 1, c)
		wantSub := append([]float64(nil), base...)
		x.MulVecSub(wantSub, c)
		gotSub := append([]float64(nil), base...)
		x.AddScaledFused(gotSub, -1, c)
		for i := range base {
			if e := relErr(gotAdd[i], wantAdd[i]); e > 1e-13 {
				t.Fatalf("AddScaledFused(+1) n=%d s=%d: row %d differs by %.3g", tc.n, tc.s, i, e)
			}
			if e := relErr(gotSub[i], wantSub[i]); e > 1e-13 {
				t.Fatalf("AddScaledFused(−1) n=%d s=%d: row %d differs by %.3g", tc.n, tc.s, i, e)
			}
		}
	}
}

func TestAddMulFusedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct{ n, sx, sd int }{
		{11, 1, 1}, {11, 3, 2}, {977, 5, 5}, {1 << 15, 8, 8}, {40_961, 6, 7},
	} {
		x := randBlock(rng, tc.n, tc.sx)
		y := randBlock(rng, tc.n, tc.sd)
		c := make([]float64, tc.sx*tc.sd)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		want := NewBlock(tc.n, tc.sd)
		AddMul(want, y, x, c)
		got := NewBlock(tc.n, tc.sd)
		AddMulFused(got, y, x, c)
		for j := 0; j < tc.sd; j++ {
			for i := 0; i < tc.n; i++ {
				if e := relErr(got.Cols[j][i], want.Cols[j][i]); e > 1e-13 {
					t.Fatalf("AddMulFused n=%d sx=%d sd=%d: (%d,%d) differs by %.3g",
						tc.n, tc.sx, tc.sd, i, j, e)
				}
			}
		}
		// Aliased form dst == y (the solvers' in-place restart path).
		alias := y.Clone()
		AddMulFused(alias, alias, x, c)
		for j := 0; j < tc.sd; j++ {
			for i := 0; i < tc.n; i++ {
				if e := relErr(alias.Cols[j][i], want.Cols[j][i]); e > 1e-13 {
					t.Fatalf("AddMulFused aliased: (%d,%d) differs by %.3g", i, j, e)
				}
			}
		}

		wantM := NewBlock(tc.n, tc.sd)
		Mul(wantM, x, c)
		gotM := NewBlock(tc.n, tc.sd)
		MulFused(gotM, x, c)
		for j := 0; j < tc.sd; j++ {
			for i := 0; i < tc.n; i++ {
				if e := relErr(gotM.Cols[j][i], wantM.Cols[j][i]); e > 1e-13 {
					t.Fatalf("MulFused: (%d,%d) differs by %.3g", i, j, e)
				}
			}
		}
	}
}

// TestFusedDeterministicForFixedWorkers: with a fixed pool size, repeated
// fused-kernel invocations must be bitwise identical — the pool's fixed
// chunking and part-ordered reduction guarantee it.
func TestFusedDeterministicForFixedWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 1 << 17
	x := randBlock(rng, n, 6)
	y := randBlock(rng, n, 6)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	for _, workers := range []int{1, 2, 5} {
		prev := pool.SetDefaultWorkers(workers)
		g1 := GramFused(x, y)
		d1 := ParDot(a, b)
		for rep := 0; rep < 3; rep++ {
			g2 := GramFused(x, y)
			for i := range g1 {
				if g1[i] != g2[i] {
					t.Fatalf("workers=%d: GramFused not bitwise reproducible at entry %d", workers, i)
				}
			}
			if d2 := ParDot(a, b); d1 != d2 {
				t.Fatalf("workers=%d: ParDot not bitwise reproducible (%v vs %v)", workers, d1, d2)
			}
		}
		pool.SetDefaultWorkers(prev)
	}
}

// TestSharedPoolConcurrentKernels hammers the shared default pool from many
// goroutines at once (run under -race in CI): the engine's dispatch
// serialization must keep concurrent solves' kernels isolated.
func TestSharedPoolConcurrentKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 1 << 15
	x := randBlock(rng, n, 4)
	y := randBlock(rng, n, 4)
	want := GramFused(x, y)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got := GramFused(x, y)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("concurrent GramFused diverged at entry %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if pool.ReadStats().FusedGramCalls == 0 {
		t.Fatal("fused gram counter not advancing")
	}
}

// TestSerialExecMatchesOneWorkerPool pins the Exec contract the SPMD rank
// backend relies on: Serial kernels produce exactly the bits the pooled
// entry points produce on a one-worker pool, at sizes above the fan-out
// threshold, whatever the pool size is when Serial runs.
func TestSerialExecMatchesOneWorkerPool(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := parallelThreshold + 37
	x, y := randBlock(rng, n, 5), randBlock(rng, n, 5)
	v := x.Col(0)
	coef := make([]float64, 25)
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	type out struct {
		gram, gramVec, comb, add []float64
		mul, addMul              *Block
		dot                      float64
	}
	run := func(e Exec) out {
		o := out{comb: make([]float64, n), add: make([]float64, n), mul: NewBlock(n, 5), addMul: NewBlock(n, 5)}
		o.gram, o.gramVec, o.dot = e.GramFused(x, y), e.GramVecFused(x, v), e.Dot(v, y.Col(1))
		e.CombineFused(o.comb, x, coef[:5])
		e.AddScaledFused(o.add, -1, y, coef[5:10])
		e.MulFused(o.mul, x, coef)
		e.AddMulFused(o.addMul, y, x, coef)
		return o
	}
	prev := pool.SetDefaultWorkers(1)
	want := run(Pooled)
	pool.SetDefaultWorkers(3)
	got := run(Serial)
	pool.SetDefaultWorkers(prev)
	same := func(name string, a, b []float64) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: Serial differs from one-worker Pooled at %d", name, i)
			}
		}
	}
	same("gram", want.gram, got.gram)
	same("gramvec", want.gramVec, got.gramVec)
	same("dot", []float64{want.dot}, []float64{got.dot})
	same("combine", want.comb, got.comb)
	same("addscaled", want.add, got.add)
	for j := 0; j < 5; j++ {
		same("mul", want.mul.Col(j), got.mul.Col(j))
		same("addmul", want.addMul.Col(j), got.addMul.Col(j))
	}
}
