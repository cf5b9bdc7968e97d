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
		Pooled.AddScaledFused(gotAdd, 1, x, c)
		wantSub := append([]float64(nil), base...)
		x.MulVecSub(wantSub, c)
		gotSub := append([]float64(nil), base...)
		Pooled.AddScaledFused(gotSub, -1, x, c)
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
		Pooled.MulFused(gotM, x, c)
		for j := 0; j < tc.sd; j++ {
			for i := 0; i < tc.n; i++ {
				if e := relErr(gotM.Cols[j][i], wantM.Cols[j][i]); e > 1e-13 {
					t.Fatalf("MulFused: (%d,%d) differs by %.3g", i, j, e)
				}
			}
		}
	}
}

// TestReductionsIndependentOfWorkers: Dot, GramFused and GramVecFused sum on
// a grid fixed by n alone, so Serial and Pooled on one, two and four workers
// return the same bits, repeat after repeat — at lengths on both sides of the
// fan-out threshold, of a Gram tile and of the dot chunk, and over several
// tiles and chunks.
func TestReductionsIndependentOfWorkers(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	rng := rand.New(rand.NewSource(11))
	const sa, sb, sv = 5, 3, 6
	gramTile, vecTile := gramTileRows(sa, sb), gramTileRows(sv, 1)
	var lengths []int
	for _, n := range []int{parallelThreshold / (sa * sb), gramTile, vecTile, dotChunk, 3*dotChunk + gramTile} {
		lengths = append(lengths, n-1, n, n+1)
	}
	dispatches := pool.ReadStats().Dispatches
	for _, n := range lengths {
		x, y, v := randBlock(rng, n, sa), randBlock(rng, n, sv), randVec(rng, n)
		run := func(e Exec) [][]float64 {
			return [][]float64{{e.Dot(v, x.Col(0))}, e.GramFused(x, y.View(0, sb)), e.GramVecFused(y, v)}
		}
		pool.SetDefaultWorkers(1)
		want := run(Serial)
		for _, workers := range []int{1, 2, 4} {
			pool.SetDefaultWorkers(workers)
			for _, e := range []Exec{Serial, Pooled, Pooled} {
				for k, got := range run(e) {
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[k][i]) {
							t.Fatalf("n=%d, %d workers, Serial=%v: %s entry %d = %v, one-worker Serial %v",
								n, workers, e == Serial, []string{"Dot", "GramFused", "GramVecFused"}[k], i, got[i], want[k][i])
						}
					}
				}
			}
		}
	}
	if pool.ReadStats().Dispatches == dispatches {
		t.Fatal("no reduction reached the pool: the pooled path went untested")
	}
}

// TestSharedPoolConcurrentKernels hammers the shared default pool from many
// goroutines at once (run under -race in CI): whichever call gets the team
// and whichever runs its parts inline because the team is busy, concurrent
// solves' kernels must stay isolated and return the lone call's bits.
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

// TestThreeTermStepMatchesFiveKernels: a one-step ThreeTermSteps call is, row
// for row and bit for bit, the two CombineFused gathers and the three
// ThreeTermInto updates it replaces — with coefficient groups that are exactly
// zero (the leading pair, a group of four in the middle, the tail) left out,
// at lengths that are not a multiple of four or of the row tile, on one, two
// and four workers and on Serial, with u.Next absent, and with r.Next writing
// over a basis column and over r.Prev the way the solver's last inner step
// does.
func TestThreeTermStepMatchesFiveKernels(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	rng := rand.New(rand.NewSource(15))
	const dim = 21 // 2s+1 at s = 10: a pair, four groups of four, a tail of three
	type zeros struct {
		name   string
		lo, hi int
	}
	patterns := []zeros{{"dense", 0, 0}, {"leading pair", 0, 2}, {"middle four", 6, 10}, {"tail", 18, 21}, {"all but one group", 0, 14}}
	for _, n := range []int{1, 7, stepTileRows - 1, stepTileRows + 5, 3*stepTileRows + 7, parallelThreshold + 37} {
		rw, uv := randBlock(rng, n, dim), randBlock(rng, n, dim)
		vecs := randBlock(rng, n, 6)
		x, xPrev, r, rPrev, u, uPrev := vecs.Col(0), vecs.Col(1), vecs.Col(2), vecs.Col(3), vecs.Col(4), vecs.Col(5)
		rho, gamma := 1.3, 0.7
		for _, zp := range patterns {
			d := make([]float64, dim)
			for i := range d {
				if i < zp.lo || i >= zp.hi {
					d[i] = rng.NormFloat64()
				}
			}
			d[(zp.hi+1)%dim] = 0 // a zero inside a live group is summed, not skipped
			w, v := make([]float64, n), make([]float64, n)
			want := NewBlock(n, 3)
			Serial.CombineFused(w, rw, d)
			Serial.CombineFused(v, uv, d)
			ThreeTermInto(want.Col(0), rho, x, -gamma, u, xPrev)
			ThreeTermInto(want.Col(1), rho, r, gamma, w, rPrev)
			ThreeTermInto(want.Col(2), rho, u, gamma, v, uPrev)
			check := func(name string, got, want []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d %s, %s: row %d is %v, want %v", n, zp.name, name, i, got[i], want[i])
					}
				}
			}
			for _, run := range []struct {
				name    string
				e       Exec
				workers int
			}{{"pooled/1", Pooled, 1}, {"pooled/2", Pooled, 2}, {"pooled/4", Pooled, 4}, {"serial", Serial, 4}} {
				pool.SetDefaultWorkers(run.workers)
				step := func(x, r, u Recur, rw *Block) {
					run.e.ThreeTermSteps([]Step{{X: x, R: r, U: u, D: d, Rho: rho, Gamma: gamma}}, rw, uv)
				}
				got := NewBlock(n, 3)
				step(Recur{got.Col(0), x, xPrev}, Recur{got.Col(1), r, rPrev}, Recur{got.Col(2), u, uPrev}, rw)
				check(run.name+" x", got.Col(0), want.Col(0))
				check(run.name+" r", got.Col(1), want.Col(1))
				check(run.name+" u", got.Col(2), want.Col(2))

				// Without u.Next: x and r as before, v never formed.
				got = NewBlock(n, 2)
				step(Recur{got.Col(0), x, xPrev}, Recur{got.Col(1), r, rPrev}, Recur{Cur: u}, rw)
				check(run.name+" x, no u", got.Col(0), want.Col(0))
				check(run.name+" r, no u", got.Col(1), want.Col(1))

				// r.Next over basis column 0 (which is also r.Prev here), and
				// x.Next over x.Prev.
				rw2, xp := &Block{N: n, Cols: append([][]float64{append([]float64(nil), rPrev...)}, rw.Cols[1:]...)}, append([]float64(nil), xPrev...)
				wantAlias := make([]float64, n)
				wa := make([]float64, n)
				Serial.CombineFused(wa, rw2, d)
				ThreeTermInto(wantAlias, rho, r, gamma, wa, rw2.Cols[0])
				step(Recur{xp, x, xp}, Recur{rw2.Cols[0], r, rw2.Cols[0]}, Recur{Cur: u}, rw2)
				check(run.name+" x over x.Prev", xp, want.Col(0))
				check(run.name+" r over a basis column", rw2.Cols[0], wantAlias)
			}
		}
	}
}

// TestThreeTermStepsMatchSingleSteps: the s-step sweep is, bit for bit, s
// one-step calls, and both are the five kernels step after step — on
// CA-PCG3's own layout at s = 10. RW = [R⁽ᵏ⁻¹⁾|W] and UV = [U⁽ᵏ⁻¹⁾|V]; step j
// advances column j of R⁽ᵏ⁾/U⁽ᵏ⁾ into column j+1; the last step forms no u
// and writes its r over R⁽ᵏ⁻¹⁾'s column 0, which earlier steps' gathers read;
// x⁺ goes over x⁻ from step to step. The steps' coefficient vectors cycle
// through dense and all-zero groups at the front, in the middle and in the
// tail, at lengths off the row tile and off 4, on one, two and four workers
// and on Serial.
func TestThreeTermStepsMatchSingleSteps(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	const s, dim = 10, 21
	zeroGroups := [][2]int{{0, 0}, {0, 2}, {6, 10}, {18, 21}}
	for _, n := range []int{7, stepTileRows + 5, 3*stepTileRows + 7, parallelThreshold + 37} {
		rng := rand.New(rand.NewSource(int64(n)))
		coef := make([][]float64, s)
		rhos, gammas := make([]float64, s), make([]float64, s)
		for j := range coef {
			coef[j] = make([]float64, dim)
			zg := zeroGroups[j%len(zeroGroups)]
			for i := range coef[j] {
				if i < zg[0] || i >= zg[1] {
					coef[j][i] = rng.NormFloat64()
				}
			}
			rhos[j], gammas[j] = 1+0.2*rng.Float64(), 0.5+0.2*rng.Float64()
		}
		// Columns: RW, UV, R⁽ᵏ⁾, U⁽ᵏ⁾, then the two x buffers.
		initial := randBlock(rng, n, 2*dim+2*s+2)
		layout := func(b *Block) (rw, uv *Block, steps []Step) {
			rw, uv = b.View(0, dim), b.View(dim, 2*dim)
			rNew, uNew := b.View(2*dim, 2*dim+s), b.View(2*dim+s, 2*dim+2*s)
			xb := [2][]float64{b.Col(2*dim + 2*s), b.Col(2*dim + 2*s + 1)}
			for j := 0; j < s; j++ {
				r := Recur{Cur: rNew.Col(j), Prev: rw.Col(s - 1)}
				u := Recur{Cur: uNew.Col(j), Prev: uv.Col(s - 1)}
				if j > 0 {
					r.Prev, u.Prev = rNew.Col(j-1), uNew.Col(j-1)
				}
				if j+1 < s {
					r.Next, u.Next = rNew.Col(j+1), uNew.Col(j+1)
				} else {
					r.Next = rw.Col(0)
				}
				x := Recur{Next: xb[(j+1)%2], Cur: xb[j%2], Prev: xb[(j+1)%2]}
				steps = append(steps, Step{X: x, R: r, U: u, D: coef[j], Rho: rhos[j], Gamma: gammas[j]})
			}
			return rw, uv, steps
		}

		want := initial.Clone()
		rw, uv, steps := layout(want)
		w, v := make([]float64, n), make([]float64, n)
		for _, st := range steps {
			Serial.CombineFused(w, rw, st.D)
			Serial.CombineFused(v, uv, st.D)
			ThreeTermInto(st.X.Next, st.Rho, st.X.Cur, -st.Gamma, st.U.Cur, st.X.Prev)
			ThreeTermInto(st.R.Next, st.Rho, st.R.Cur, st.Gamma, w, st.R.Prev)
			if st.U.Next != nil {
				ThreeTermInto(st.U.Next, st.Rho, st.U.Cur, st.Gamma, v, st.U.Prev)
			}
		}
		check := func(name string, got *Block) {
			t.Helper()
			for j := range want.Cols {
				for i := range want.Cols[j] {
					if math.Float64bits(got.Cols[j][i]) != math.Float64bits(want.Cols[j][i]) {
						t.Fatalf("n=%d %s: column %d row %d is %v, want %v", n, name, j, i, got.Cols[j][i], want.Cols[j][i])
					}
				}
			}
		}
		for _, run := range []struct {
			name    string
			e       Exec
			workers int
		}{{"pooled/1", Pooled, 1}, {"pooled/2", Pooled, 2}, {"pooled/4", Pooled, 4}, {"serial", Serial, 4}} {
			pool.SetDefaultWorkers(run.workers)
			got := initial.Clone()
			rw, uv, steps := layout(got)
			run.e.ThreeTermSteps(steps, rw, uv)
			check(run.name+" sweep", got)

			got = initial.Clone()
			rw, uv, steps = layout(got)
			for k := range steps {
				run.e.ThreeTermSteps(steps[k:k+1], rw, uv)
			}
			check(run.name+" one step at a time", got)
		}
	}
}
