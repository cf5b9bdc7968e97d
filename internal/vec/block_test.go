package vec

import (
	"math"
	"math/rand"
	"spcg/internal/pool"
	"testing"
)

func randBlock(rng *rand.Rand, n, s int) *Block {
	b := NewBlock(n, s)
	for _, c := range b.Cols {
		for i := range c {
			c[i] = rng.NormFloat64()
		}
	}
	return b
}

// naive dense reference: n×s matrix as [][]float64 rows.
func blockToRows(b *Block) [][]float64 {
	rows := make([][]float64, b.N)
	for i := range rows {
		rows[i] = make([]float64, b.S())
		for j := 0; j < b.S(); j++ {
			rows[i][j] = b.Cols[j][i]
		}
	}
	return rows
}

func TestNewBlockContiguous(t *testing.T) {
	b := NewBlock(4, 3)
	if b.S() != 3 || b.N != 4 {
		t.Fatalf("shape = %d×%d", b.N, b.S())
	}
	b.Col(1)[2] = 5
	if b.Cols[1][2] != 5 {
		t.Fatal("Col does not view storage")
	}
	// Appending to a column must not spill into its neighbour (capacity capped).
	c0 := b.Col(0)
	c0 = append(c0, 99)
	if b.Cols[1][0] == 99 {
		t.Fatal("column capacity not capped; append corrupted neighbour column")
	}
	_ = c0
}

func TestBlockZeroShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlock(-1, 2)
}

func TestBlockMulVec(t *testing.T) {
	b := NewBlock(2, 2)
	// X = [1 3; 2 4]
	b.Cols[0][0], b.Cols[0][1] = 1, 2
	b.Cols[1][0], b.Cols[1][1] = 3, 4
	dst := make([]float64, 2)
	b.MulVec(dst, []float64{1, 1})
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("MulVec = %v", dst)
	}
	b.MulVecAdd(dst, []float64{1, 0})
	if dst[0] != 5 || dst[1] != 8 {
		t.Fatalf("MulVecAdd = %v", dst)
	}
	b.MulVecSub(dst, []float64{0, 1})
	if dst[0] != 2 || dst[1] != 4 {
		t.Fatalf("MulVecSub = %v", dst)
	}
}

func TestGramAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randBlock(rng, 50, 3)
	y := randBlock(rng, 50, 4)
	g := Gram(x, y)
	xr, yr := blockToRows(x), blockToRows(y)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			var want float64
			for r := 0; r < 50; r++ {
				want += xr[r][i] * yr[r][j]
			}
			if !almostEq(g[i*4+j], want, 1e-10) {
				t.Fatalf("Gram[%d,%d] = %v, want %v", i, j, g[i*4+j], want)
			}
		}
	}
}

func TestGramSymmetryOnSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randBlock(rng, 64, 5)
	g := Gram(x, x)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if g[i*5+j] != g[j*5+i] {
				t.Fatalf("Gram(x,x) not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestGramVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randBlock(rng, 30, 4)
	v := randVec(rng, 30)
	g := GramVec(x, v)
	for i := 0; i < 4; i++ {
		if !almostEq(g[i], Dot(x.Col(i), v), 1e-12) {
			t.Fatalf("GramVec[%d] mismatch", i)
		}
	}
}

func TestAddMulAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, sx, sd := 40, 3, 2
	x := randBlock(rng, n, sx)
	y := randBlock(rng, n, sd)
	c := make([]float64, sx*sd)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	dst := NewBlock(n, sd)
	AddMul(dst, y, x, c)
	for j := 0; j < sd; j++ {
		for r := 0; r < n; r++ {
			want := y.Cols[j][r]
			for i := 0; i < sx; i++ {
				want += x.Cols[i][r] * c[i*sd+j]
			}
			if !almostEq(dst.Cols[j][r], want, 1e-10) {
				t.Fatalf("AddMul[%d][%d] = %v, want %v", j, r, dst.Cols[j][r], want)
			}
		}
	}
	// In-place dst == y must give the same result.
	y2 := y.Clone()
	AddMul(y2, y2, x, c)
	for j := 0; j < sd; j++ {
		for r := 0; r < n; r++ {
			if !almostEq(y2.Cols[j][r], dst.Cols[j][r], 1e-10) {
				t.Fatalf("in-place AddMul differs at [%d][%d]", j, r)
			}
		}
	}
	// Parallel variant must match. The fused kernel groups columns four at a
	// time, so its (fixed, deterministic) summation association differs from
	// the sequential per-column Axpy sweep — compare to tolerance, not bits.
	dst2 := NewBlock(n, sd)
	AddMulFused(dst2, y, x, c)
	for j := 0; j < sd; j++ {
		for r := 0; r < n; r++ {
			if !almostEq(dst2.Cols[j][r], dst.Cols[j][r], 1e-12) {
				t.Fatalf("AddMulFused differs at [%d][%d]", j, r)
			}
		}
	}
}

func TestMul(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randBlock(rng, 20, 3)
	c := []float64{1, 0, 0, 1, 1, 1} // 3×2
	dst := NewBlock(20, 2)
	Mul(dst, x, c)
	zero := NewBlock(20, 2)
	want := NewBlock(20, 2)
	AddMul(want, zero, x, c)
	for j := 0; j < 2; j++ {
		for r := 0; r < 20; r++ {
			if dst.Cols[j][r] != want.Cols[j][r] {
				t.Fatal("Mul != AddMul with zero Y")
			}
		}
	}
}

func TestBlockViewClone(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := randBlock(rng, 10, 5)
	v := b.View(1, 4)
	if v.S() != 3 {
		t.Fatalf("View S = %d", v.S())
	}
	v.Cols[0][0] = 42
	if b.Cols[1][0] != 42 {
		t.Fatal("View does not share storage")
	}
	c := b.Clone()
	c.Cols[0][0] = -1
	if b.Cols[0][0] == -1 {
		t.Fatal("Clone shares storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad View range")
		}
	}()
	b.View(3, 7)
}

func TestBlockCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlock(3, 2).CopyFrom(NewBlock(3, 3))
}

// Property: Gram(x,y) via MulVec consistency — (XᵀY)c == Xᵀ(Yc).
func TestGramMulVecConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(50)
		sx := 1 + rng.Intn(4)
		sy := 1 + rng.Intn(4)
		x, y := randBlock(rng, n, sx), randBlock(rng, n, sy)
		c := randVec(rng, sy)
		g := Gram(x, y)
		// lhs = (XᵀY)·c
		lhs := make([]float64, sx)
		for i := 0; i < sx; i++ {
			for j := 0; j < sy; j++ {
				lhs[i] += g[i*sy+j] * c[j]
			}
		}
		// rhs = Xᵀ·(Y·c)
		yc := make([]float64, n)
		y.MulVec(yc, c)
		rhs := GramVec(x, yc)
		for i := 0; i < sx; i++ {
			if math.Abs(lhs[i]-rhs[i]) > 1e-9*(1+math.Abs(lhs[i])) {
				t.Fatalf("trial %d: associativity violated at %d: %v vs %v", trial, i, lhs[i], rhs[i])
			}
		}
	}
}

func TestBlockZero(t *testing.T) {
	b := randBlock(rand.New(rand.NewSource(99)), 8, 3)
	b.Zero()
	for _, c := range b.Cols {
		for _, v := range c {
			if v != 0 {
				t.Fatal("Zero left nonzero entries")
			}
		}
	}
}

func TestBlockShapePanics(t *testing.T) {
	b := NewBlock(4, 2)
	cases := []func(){
		func() { b.MulVec(make([]float64, 4), make([]float64, 3)) },
		func() { b.MulVec(make([]float64, 3), make([]float64, 2)) },
		func() { b.MulVecAdd(make([]float64, 4), make([]float64, 3)) },
		func() { b.MulVecSub(make([]float64, 4), make([]float64, 3)) },
		func() { Gram(NewBlock(4, 2), NewBlock(5, 2)) },
		func() { AddMul(NewBlock(4, 2), NewBlock(4, 3), b, make([]float64, 4)) },
		func() { Mul(NewBlock(4, 2), b, make([]float64, 3)) },
		func() { AddMulFused(NewBlock(4, 2), NewBlock(4, 3), b, make([]float64, 4)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestParDotManyWorkers(t *testing.T) {
	prev := pool.SetDefaultWorkers(4)
	defer pool.SetDefaultWorkers(prev)
	rng := rand.New(rand.NewSource(100))
	n := parallelThreshold * 4
	a, b := randVec(rng, n), randVec(rng, n)
	want := Dot(a, b)
	// Deterministic across repeated calls with a fixed worker count.
	first := ParDot(a, b)
	for i := 0; i < 5; i++ {
		if got := ParDot(a, b); got != first {
			t.Fatal("ParDot nondeterministic for fixed worker count")
		}
	}
	if math.Abs(first-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("ParDot = %v, want %v", first, want)
	}
}

func TestParallelKernelsWithForcedWorkers(t *testing.T) {
	// GOMAXPROCS may be 1 in CI; force multiple workers so the fan-out paths
	// execute.
	prev := pool.SetDefaultWorkers(3)
	defer pool.SetDefaultWorkers(prev)
	rng := rand.New(rand.NewSource(201))
	n := parallelThreshold * 2
	a := randBlock(rng, n, 2)
	bBlk := randBlock(rng, n, 2)
	c := []float64{0.5, -1, 2, 0.25}
	d1 := NewBlock(n, 2)
	d2 := NewBlock(n, 2)
	AddMulFused(d1, bBlk, a, c)
	AddMul(d2, bBlk, a, c)
	for j := 0; j < 2; j++ {
		for i := 0; i < n; i++ {
			if d1.Cols[j][i] != d2.Cols[j][i] {
				t.Fatal("forced-worker AddMulFused mismatch")
			}
		}
	}
}

// The reference kernels below are the oracles the fused kernels are held to;
// no production path calls them.

// Clone returns a deep copy of b.
func (b *Block) Clone() *Block {
	nb := NewBlock(b.N, b.S())
	nb.CopyFrom(b)
	return nb
}

// MulVecAdd computes dst += X·c.
func (b *Block) MulVecAdd(dst []float64, c []float64) {
	if len(c) != b.S() {
		panic("vec: Block MulVecAdd coefficient length mismatch")
	}
	for j, col := range b.Cols {
		Axpy(c[j], col, dst)
	}
}

// MulVecSub computes dst -= X·c.
func (b *Block) MulVecSub(dst []float64, c []float64) {
	if len(c) != b.S() {
		panic("vec: Block MulVecSub coefficient length mismatch")
	}
	for j, col := range b.Cols {
		Axpy(-c[j], col, dst)
	}
}

// GramVec computes the length-s vector Xᵀ·v.
func GramVec(x *Block, v []float64) []float64 {
	out := make([]float64, x.S())
	for i, col := range x.Cols {
		out[i] = Dot(col, v)
	}
	return out
}

// Mul computes dst = X·C (as AddMul with Y = 0).
func Mul(dst, x *Block, c []float64) {
	sx, sd := x.S(), dst.S()
	if len(c) != sx*sd || dst.N != x.N {
		panic("vec: Mul shape mismatch")
	}
	for j := 0; j < sd; j++ {
		d := dst.Cols[j]
		Zero(d)
		for i := 0; i < sx; i++ {
			Axpy(c[i*sd+j], x.Cols[i], d)
		}
	}
}
