// Fused, cache-blocked block-vector kernels dispatched on the shared worker
// pool (internal/pool). These are the shared-memory realization of the
// paper's s-step argument: instead of s (or s²) separate n-length BLAS1
// sweeps, each kernel makes one pass over its operands with row tiles sized
// to stay cache-resident and 4-way column-grouped inner loops.
//
// Determinism: every kernel partitions rows by the pool's fixed chunking and
// combines per-part accumulators in part order, so results are bitwise
// reproducible for a fixed worker count (and identical whether a dispatch
// runs parallel or inline).
package vec

import (
	"fmt"

	"spcg/internal/pool"
)

// Exec says where a kernel's row loop runs. Pooled, the zero value, spreads
// operands above the parallel threshold over the shared worker pool; Serial
// keeps the whole kernel on the calling goroutine. An SPMD rank wants Serial:
// the ranks already are the parallelism, and the pool serialises concurrent
// dispatchers behind one mutex. Serial computes exactly the bits Pooled
// computes on a one-worker pool.
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
// n-length Dot streams. Rows are tiled so both operand tiles stay in L2;
// each pool worker accumulates a private sᵃ×sᵇ block over its fixed row
// chunk and the partials are reduced in part order.
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
	n := x.N
	p := e.fanout(n * sa * sb)
	if p == nil {
		gramAccum(out, x, y, 0, n)
		return out
	}
	parts := p.NumParts(n)
	partials := make([]float64, parts*sa*sb)
	p.Run(n, func(part, lo, hi int) {
		gramAccum(partials[part*sa*sb:(part+1)*sa*sb], x, y, lo, hi)
	})
	for t := 0; t < parts; t++ {
		acc := partials[t*sa*sb : (t+1)*sa*sb]
		for i, v := range acc {
			out[i] += v
		}
	}
	return out
}

// gramAccum adds Xᵀ·Y over rows [lo,hi) into acc, tile by tile.
func gramAccum(acc []float64, x, y *Block, lo, hi int) {
	tile := gramTileRows(x.S(), y.S())
	for t := lo; t < hi; t += tile {
		te := t + tile
		if te > hi {
			te = hi
		}
		gramTile(acc, x.Cols, y.Cols, t, te)
	}
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
	n := x.N
	p := e.fanout(n * s)
	if p == nil {
		gramVecAccum(out, x, v, 0, n)
		return out
	}
	parts := p.NumParts(n)
	partials := make([]float64, parts*s)
	p.Run(n, func(part, lo, hi int) {
		gramVecAccum(partials[part*s:(part+1)*s], x, v, lo, hi)
	})
	for t := 0; t < parts; t++ {
		for i, pv := range partials[t*s : (t+1)*s] {
			out[i] += pv
		}
	}
	return out
}

func gramVecAccum(acc []float64, x *Block, v []float64, lo, hi int) {
	tile := gramTileRows(x.S(), 1)
	vc := [][]float64{v}
	for t := lo; t < hi; t += tile {
		te := t + tile
		if te > hi {
			te = hi
		}
		gramTile(acc, vc, x.Cols, t, te) // 1×s: acc[i] += v·x_i
	}
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

// AddScaledFused computes dst += alpha·(X·c) in one destination sweep
// instead of s Axpy passes (alpha = ±1 covers the solvers' x += P·a and
// r −= AP·a updates).
func (b *Block) AddScaledFused(dst []float64, alpha float64, c []float64) {
	Pooled.AddScaledFused(dst, alpha, b, c)
}

// AddScaledFused is Block.AddScaledFused run where e says.
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

// MulFused computes dst = X·C (AddMulFused with Y = 0): one destination
// sweep per column instead of sx Axpy passes.
func MulFused(dst, x *Block, c []float64) { Pooled.MulFused(dst, x, c) }

// MulFused is the package-level MulFused run where e says.
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
