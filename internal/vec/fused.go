// Fused, cache-blocked block-vector kernels dispatched on the shared worker
// pool (internal/pool). These are the shared-memory realization of the
// paper's s-step argument: instead of s (or s²) separate n-length BLAS1
// sweeps, each kernel makes one pass over its operands with row tiles sized
// to stay cache-resident and 4-way column-grouped inner loops.
//
// Determinism: the elementwise kernels compute each row from that row's
// operands alone, so any split of the rows gives the same bits. The
// reductions (Dot, GramFused, GramVecFused) add their partial sums on one
// fixed grid of rows (sumGrid) in grid order. So every result is bitwise the
// same for any worker count, pooled or inline, Pooled or Serial.
package vec

import (
	"fmt"

	"spcg/internal/pool"
)

// Exec says where a kernel's row loop runs. Pooled, the zero value, spreads
// operands above the parallel threshold over the shared worker pool; Serial
// keeps the whole kernel on the calling goroutine. An SPMD rank wants Serial
// because the ranks already are the parallelism; concurrent Pooled callers do
// not queue either (one gets the team, the others run their parts inline).
// Serial computes exactly the bits Pooled computes, on a pool of any size.
type Exec bool

const (
	Pooled Exec = false
	Serial Exec = true
)

// fanout returns the pool to split work over, or nil to run inline.
func (e Exec) fanout(work int) *pool.Pool {
	if e == Serial || work < parallelThreshold {
		return nil
	}
	if p := pool.Default(); p.Workers() > 1 {
		return p
	}
	return nil
}

// gramTileBytes bounds the working set of one Gram tile: tile rows are chosen
// so that one tile of X plus one tile of Y (~(sa+sb)·tile·8 bytes) fits
// comfortably in L2, making the s×s accumulation a single memory pass.
const gramTileBytes = 1 << 19

// combineTileRows is the row-tile length for the fused combine kernels: the
// destination tile (32 KB) stays L1/L2-resident across column groups, so dst
// is streamed from memory once regardless of the column count.
const combineTileRows = 1 << 12

// gramTileRows returns the row-tile length for an sa×sb Gram accumulation.
func gramTileRows(sa, sb int) int {
	t := gramTileBytes / (8 * (sa + sb))
	if t < 512 {
		t = 512
	}
	if t > 1<<13 {
		t = 1 << 13
	}
	return t
}

// GramFused computes the sᵃ×sᵇ matrix Xᵀ·Y (row-major, like Gram) in one
// cache-blocked pass over X and Y, instead of Gram's sᵃ·sᵇ independent
// n-length Dot streams. Rows are tiled so both operand tiles stay in L2, and
// the tiles' sums are added in tile order on sumGrid's fixed grid.
func GramFused(x, y *Block) []float64 { return Pooled.GramFused(x, y) }

// GramFused is the package-level GramFused run where e says.
func (e Exec) GramFused(x, y *Block) []float64 {
	if x.N != y.N {
		panic("vec: GramFused row-count mismatch")
	}
	sa, sb := x.S(), y.S()
	out := make([]float64, sa*sb)
	if sa == 0 || sb == 0 || x.N == 0 {
		return out
	}
	pool.CountFusedGram()
	e.sumGrid(out, x.N, gramTileRows(sa, sb), x.N*sa*sb, rowSums{x: x.Cols, y: y.Cols})
	return out
}

// GramVecFused computes Xᵀ·v with v's tiles kept cache-resident across the
// block's columns (one memory pass over X and v).
func GramVecFused(x *Block, v []float64) []float64 { return Pooled.GramVecFused(x, v) }

// GramVecFused is the package-level GramVecFused run where e says.
func (e Exec) GramVecFused(x *Block, v []float64) []float64 {
	if len(v) != x.N {
		panic("vec: GramVecFused length mismatch")
	}
	s := x.S()
	out := make([]float64, s)
	if s == 0 || x.N == 0 {
		return out
	}
	pool.CountFusedGram()
	e.sumGrid(out, x.N, gramTileRows(s, 1), x.N*s, rowSums{y: x.Cols, v: v})
	return out
}

// combineSpan computes, over the span d (rows [off, off+len(d)) of the
// block), one destination sweep of a multi-column update with coefficients
// scale·coef[i]:
//
//	base == nil: d (+)= Σ_i scale·coef[i]·cols[i]   ("+=" when accumulate)
//	base != nil: d  = base + Σ_i scale·coef[i]·cols[i]
//
// Columns are processed in groups of four so the inner loop carries four
// independent multiply-add streams while d stays register/cache resident;
// each group is one microkernel (kernel.go).
func combineSpan(d []float64, cols [][]float64, coef []float64, scale float64, off int, base []float64, accumulate bool) {
	col := func(i int) []float64 { return cols[i][off : off+len(d)] }
	c := func(i int) float64 { return scale * coef[i] }
	i := 0
	if !accumulate {
		switch {
		case len(cols) == 0:
			if base != nil {
				copy(d, base)
			} else {
				Zero(d)
			}
			return
		case base != nil:
			xpay(d, base, c(0), col(0))
			i = 1
		case len(cols) >= 2:
			combineInit2(d, col(0), col(1), c(0), c(1))
			i = 2
		default:
			ScaleInto(d, c(0), col(0))
			i = 1
		}
	}
	for ; i+4 <= len(cols); i += 4 {
		combine4(d, col(i), col(i+1), col(i+2), col(i+3), c(i), c(i+1), c(i+2), c(i+3))
	}
	switch len(cols) - i {
	case 3:
		combine3(d, col(i), col(i+1), col(i+2), c(i), c(i+1), c(i+2))
	case 2:
		combine2(d, col(i), col(i+1), c(i), c(i+1))
	case 1:
		axpy(c(i), col(i), d)
	}
}

// CombineFused computes dst = X·c (the tall-skinny GEMV of Block.MulVec) in
// one destination sweep instead of s Axpy passes. dst must not alias a
// column of the block.
func (b *Block) CombineFused(dst []float64, c []float64) { Pooled.CombineFused(dst, b, c) }

// CombineFused is Block.CombineFused run where e says.
func (e Exec) CombineFused(dst []float64, b *Block, c []float64) {
	if len(c) != b.S() {
		panic(fmt.Sprintf("vec: CombineFused coefficient length %d != %d columns", len(c), b.S()))
	}
	if len(dst) != b.N {
		panic("vec: CombineFused dst length mismatch")
	}
	pool.CountFusedCombine()
	p := e.fanout(b.N * (b.S() + 1))
	if p == nil {
		combineSpan(dst, b.Cols, c, 1, 0, nil, false)
		return
	}
	p.Run(b.N, func(part, lo, hi int) {
		combineSpan(dst[lo:hi], b.Cols, c, 1, lo, nil, false)
	})
}

// Recur names the three vectors of one three-term recurrence: Next is
// written from Cur and Prev.
type Recur struct{ Next, Cur, Prev []float64 }

// Step is one CA-PCG3 inner step for ThreeTermSteps: the recurrences it
// advances, its gather coefficients D and its scalars ρ and γ.
type Step struct {
	X, R, U    Recur
	D          []float64
	Rho, Gamma float64
}

// stepTileRows is ThreeTermSteps' row tile: the tile's w and v live on the
// stack (2 × 8 KiB) and stay in L1 between the gather that forms them and the
// update that reads them, and the tile's rows of RW and UV (2 × 21 columns
// at s = 10: 336 KiB) stay in L2 from one step to the next.
const stepTileRows = 1 << 10

// ThreeTermSteps runs CA-PCG3's inner steps in one sweep over the rows. Step
// k, with the gathers w = RW·d and v = UV·d formed a row tile at a time and
// never stored, computes
//
//	x.Next = ρ(x.Cur + γ·u.Cur) + (1−ρ)·x.Prev
//	r.Next = ρ(r.Cur − γ·w)     + (1−ρ)·r.Prev
//	u.Next = ρ(u.Cur − γ·v)     + (1−ρ)·u.Prev   (skipped, v too, when u.Next is nil)
//
// Each row tile runs step 0, then step 1, and so on, before the sweep moves
// on. Every operation is row-local, so a row gets exactly what the steps give
// run one sweep after another; a later step may read an earlier one's outputs,
// and an output may alias a column of RW or UV or the same row's Prev, since
// each row is read before it is written. A one-step call is bitwise what
// CombineFused twice and ThreeTermInto three times give, with one exception by
// design: a group of columns whose coefficients are all exactly zero (the
// gather's leading pair, a group of four, or its tail) is left out, and the
// group keeps its place, so every non-zero term is summed in the same order.
// A left-out group adds ±0, so only the sign of an exact zero can differ — or
// a NaN/Inf in a left-out column that the full gather would have spread.
func (e Exec) ThreeTermSteps(steps []Step, rw, uv *Block) {
	n, work := rw.N, 0
	for i := range steps {
		st := &steps[i]
		if rw.S() != len(st.D) || uv.S() != len(st.D) || uv.N != n {
			panic("vec: ThreeTermSteps basis shape mismatch")
		}
		for _, v := range [][]float64{st.X.Next, st.X.Cur, st.X.Prev, st.R.Next, st.R.Cur, st.R.Prev, st.U.Cur} {
			if len(v) != n {
				panic("vec: ThreeTermSteps length mismatch")
			}
		}
		if st.U.Next != nil && (len(st.U.Next) != n || len(st.U.Prev) != n) {
			panic("vec: ThreeTermSteps length mismatch")
		}
		work += 2*len(st.D) + 9
	}
	if len(steps) == 0 {
		return
	}
	pool.CountFusedCombine()
	p := e.fanout(n * work)
	if p == nil {
		threeTermStepsRows(steps, rw, uv, 0, n)
		return
	}
	p.Run(n, func(_, lo, hi int) {
		threeTermStepsRows(steps, rw, uv, lo, hi)
	})
}

// threeTermStepsRows is ThreeTermSteps over rows [lo, hi), tile by tile and,
// in each tile, step by step.
func threeTermStepsRows(steps []Step, rw, uv *Block, lo, hi int) {
	var wt, vt [stepTileRows]float64
	for t := lo; t < hi; t += stepTileRows {
		te := min(t+stepTileRows, hi)
		w, v := wt[:te-t], vt[:te-t]
		for i := range steps {
			st := &steps[i]
			x, r, u := st.X, st.R, st.U
			rho, gamma, omr := st.Rho, st.Gamma, 1-st.Rho
			combineLive(w, rw.Cols, st.D, t)
			if u.Next != nil {
				combineLive(v, uv.Cols, st.D, t)
			}
			threeTerm(x.Next[t:te], rho, x.Cur[t:te], -gamma, u.Cur[t:te], omr, x.Prev[t:te])
			threeTerm(r.Next[t:te], rho, r.Cur[t:te], gamma, w, omr, r.Prev[t:te])
			if u.Next != nil {
				threeTerm(u.Next[t:te], rho, u.Cur[t:te], gamma, v, omr, u.Prev[t:te])
			}
		}
	}
}

// combineLive is combineSpan's d = Σ_i coef[i]·cols[i] over rows
// [off, off+len(d)) of the columns, in the same groups (a leading pair, fours,
// a tail of three, two or one), leaving out every group whose coefficients
// are all exactly zero.
func combineLive(d []float64, cols [][]float64, coef []float64, off int) {
	if len(cols) < 2 {
		combineSpan(d, cols, coef, 1, off, nil, false)
		return
	}
	col := func(i int) []float64 { return cols[i][off : off+len(d)] }
	live := func(lo, hi int) bool {
		for _, c := range coef[lo:hi] {
			if c != 0 {
				return true
			}
		}
		return false
	}
	if live(0, 2) {
		combineInit2(d, col(0), col(1), coef[0], coef[1])
	} else {
		Zero(d)
	}
	i := 2
	for ; i+4 <= len(cols); i += 4 {
		if live(i, i+4) {
			combine4(d, col(i), col(i+1), col(i+2), col(i+3), coef[i], coef[i+1], coef[i+2], coef[i+3])
		}
	}
	if !live(i, len(cols)) {
		return
	}
	switch len(cols) - i {
	case 3:
		combine3(d, col(i), col(i+1), col(i+2), coef[i], coef[i+1], coef[i+2])
	case 2:
		combine2(d, col(i), col(i+1), coef[i], coef[i+1])
	case 1:
		axpy(coef[i], col(i), d)
	}
}

// AddScaledFused computes dst += alpha·(X·c), run where e says, in one
// destination sweep instead of s Axpy passes (alpha = ±1 covers the solvers'
// x += P·a and r −= AP·a updates).
func (e Exec) AddScaledFused(dst []float64, alpha float64, b *Block, c []float64) {
	if len(c) != b.S() {
		panic("vec: AddScaledFused coefficient length mismatch")
	}
	if len(dst) != b.N {
		panic("vec: AddScaledFused dst length mismatch")
	}
	pool.CountFusedCombine()
	p := e.fanout(b.N * (b.S() + 1))
	if p == nil {
		combineSpan(dst, b.Cols, c, alpha, 0, nil, true)
		return
	}
	p.Run(b.N, func(part, lo, hi int) {
		combineSpan(dst[lo:hi], b.Cols, c, alpha, lo, nil, true)
	})
}

// transposeCoef gathers C's column j (strided in the row-major sx×sd layout)
// into contiguous per-destination coefficient rows: ct[j*sx+i] = c[i*sd+j].
func transposeCoef(c []float64, sx, sd int) []float64 {
	ct := make([]float64, len(c))
	for j := 0; j < sd; j++ {
		for i := 0; i < sx; i++ {
			ct[j*sx+i] = c[i*sd+j]
		}
	}
	return ct
}

// AddMulFused computes dst = Y + X·C (the BLAS3 search-direction update of
// AddMul) with one destination sweep per column: rows are tiled so each dst
// tile is written once while the column groups accumulate into it. dst must
// not share columns with x; dst may equal y.
func AddMulFused(dst, y, x *Block, c []float64) { Pooled.AddMulFused(dst, y, x, c) }

// AddMulFused is the package-level AddMulFused run where e says.
func (e Exec) AddMulFused(dst, y, x *Block, c []float64) {
	sx, sd := x.S(), dst.S()
	if y.S() != sd || len(c) != sx*sd || y.N != x.N || dst.N != x.N {
		panic("vec: AddMulFused shape mismatch")
	}
	if sd == 0 || dst.N == 0 {
		return
	}
	pool.CountFusedCombine()
	ct := transposeCoef(c, sx, sd)
	p := e.fanout(dst.N * (sx + 1))
	if p == nil {
		addMulRange(dst, y, x, ct, 0, dst.N)
		return
	}
	p.Run(dst.N, func(part, lo, hi int) {
		addMulRange(dst, y, x, ct, lo, hi)
	})
}

// addMulRange applies the fused update to rows [lo,hi), tile by tile.
func addMulRange(dst, y, x *Block, ct []float64, lo, hi int) {
	sx, sd := x.S(), dst.S()
	for t := lo; t < hi; t += combineTileRows {
		te := t + combineTileRows
		if te > hi {
			te = hi
		}
		for j := 0; j < sd; j++ {
			d, yc := dst.Cols[j][t:te], y.Cols[j]
			base := yc[t:te]
			if &d[0] == &base[0] {
				// dst aliases y: accumulate in place.
				combineSpan(d, x.Cols, ct[j*sx:(j+1)*sx], 1, t, nil, true)
			} else {
				combineSpan(d, x.Cols, ct[j*sx:(j+1)*sx], 1, t, base, false)
			}
		}
	}
}

// MulFused computes dst = X·C (AddMulFused with Y = 0), run where e says:
// one destination sweep per column instead of sx Axpy passes.
func (e Exec) MulFused(dst, x *Block, c []float64) {
	sx, sd := x.S(), dst.S()
	if len(c) != sx*sd || dst.N != x.N {
		panic("vec: MulFused shape mismatch")
	}
	if sd == 0 || dst.N == 0 {
		return
	}
	pool.CountFusedCombine()
	ct := transposeCoef(c, sx, sd)
	p := e.fanout(dst.N * (sx + 1))
	if p == nil {
		mulRange(dst, x, ct, 0, dst.N)
		return
	}
	p.Run(dst.N, func(part, lo, hi int) {
		mulRange(dst, x, ct, lo, hi)
	})
}

func mulRange(dst, x *Block, ct []float64, lo, hi int) {
	sx, sd := x.S(), dst.S()
	for t := lo; t < hi; t += combineTileRows {
		te := t + combineTileRows
		if te > hi {
			te = hi
		}
		for j := 0; j < sd; j++ {
			combineSpan(dst.Cols[j][t:te], x.Cols, ct[j*sx:(j+1)*sx], 1, t, nil, false)
		}
	}
}
