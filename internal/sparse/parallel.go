package sparse

import (
	"fmt"
	"sync/atomic"

	"spcg/internal/pool"
	"spcg/internal/vec"
)

// parSpMVThreshold is the nnz count below which MulVecPar stays sequential.
const parSpMVThreshold = 1 << 15

// rowPartition is one cached nnz-balanced row split.
type rowPartition struct {
	p      int
	bounds []int
}

// partitionCache holds the matrix's recently used row partitions
// (copy-on-write; a lost concurrent append only costs a recompute).
type partitionCache struct {
	entries []rowPartition
}

// maxCachedPartitions bounds the cache: every pool kernel of a matrix splits
// it by the worker count, so a handful covers every caller (and a resized
// pool) without growing with traffic.
const maxCachedPartitions = 8

// balancedRanges returns NNZBalancedRanges(a, p), memoized per p: the split
// is O(n) to compute, which is comparable to an SpMV for the low-nnz stencil
// matrices, so the hot path must not pay it per call.
func (a *CSR) balancedRanges(p int) []int {
	if c := a.parts.Load(); c != nil {
		for _, e := range c.entries {
			if e.p == p {
				return e.bounds
			}
		}
	}
	bounds := NNZBalancedRanges(a, p)
	old := a.parts.Load()
	var entries []rowPartition
	if old != nil {
		entries = old.entries
		if len(entries) >= maxCachedPartitions {
			entries = entries[1:]
		}
	}
	nc := &partitionCache{entries: append(append([]rowPartition(nil), entries...), rowPartition{p: p, bounds: bounds})}
	a.parts.CompareAndSwap(old, nc)
	return bounds
}

// MulVecPar computes dst = A·x with nnz-balanced row ranges dispatched on the
// persistent worker pool — no per-call goroutine spawn. Rows are split by
// approximately equal nnz (not equal row counts) so matrices with irregular
// rows stay balanced, mirroring the nnz-balanced block-row distribution the
// paper uses across MPI ranks; the split is cached on the matrix. Row results
// are independent, so the output is bitwise identical to MulVec.
func (a *CSR) MulVecPar(dst, x []float64) {
	if len(x) != a.N || len(dst) != a.N {
		panic("sparse: MulVecPar dim mismatch")
	}
	bounds := a.parRanges()
	if bounds == nil {
		a.MulVecRows(dst, x, 0, a.N)
		return
	}
	pool.CountSpMV()
	pool.Default().RunBounds(bounds, func(_, lo, hi int) {
		a.MulVecRows(dst, x, lo, hi)
	})
}

// MulBlockPar computes the multi-vector SpMV dst_j = A·x_j in one pass over
// the matrix per group of up to four columns: nnz-balanced row ranges on the
// pool exactly as MulVecPar (same partition, same inline-or-pooled rule), and
// within a range every row's Val/ColIdx is read once per column group and
// feeds one accumulator per column. Each column is summed in stored order, so
// it is bitwise identical to MulVec on that column, for any worker count.
// CA-PCG's paired chains under a non-diagonal preconditioner (k = 2) and
// BatchPCG's block product both run on it. No dst column may alias
// an x column.
func (a *CSR) MulBlockPar(dst, x *vec.Block) {
	if !checkBlockShapes(a.N, dst, x) {
		return
	}
	bounds := a.parRanges()
	if bounds == nil {
		a.MulBlockRows(dst, x, 0, a.N)
		return
	}
	pool.CountSpMV()
	pool.Default().RunBounds(bounds, func(_, lo, hi int) {
		a.MulBlockRows(dst, x, lo, hi)
	})
}

// parRanges is the row kernels' one inline-or-pooled decision: nil below the
// parallel threshold or on a one-worker pool (the kernel runs all rows on the
// caller and builds no pool closure), else the default pool's nnz-balanced
// ranges. Rows are independent, so the split never changes a bit.
func (a *CSR) parRanges() []int {
	w := pool.Default().Workers()
	if a.NNZ() < parSpMVThreshold || w == 1 {
		return nil
	}
	return a.balancedRanges(min(w, a.N))
}

// checkBlockShapes panics on a block-SpMV shape or aliasing error and reports
// whether there is any column to compute.
func checkBlockShapes(n int, dst, x *vec.Block) bool {
	s := x.S()
	if dst.S() != s {
		panic("sparse: MulBlockPar column-count mismatch")
	}
	if s == 0 {
		return false
	}
	if dst.N != n || x.N != n {
		panic("sparse: MulBlockPar dim mismatch")
	}
	for j := range x.Cols {
		if len(dst.Cols[j]) != n || len(x.Cols[j]) != n {
			panic("sparse: MulBlockPar dim mismatch")
		}
	}
	for _, d := range dst.Cols {
		for _, c := range x.Cols {
			if n > 0 && &d[0] == &c[0] {
				panic("sparse: MulBlockPar dst aliases x")
			}
		}
	}
	return true
}

// blockRowTile is how many rows MulBlockRows finishes for every column group
// before moving on, so that with more than four columns the later groups find
// the tile's Val/ColIdx in cache instead of streaming them from memory again.
// Serial, k = 8, 40 interleaved rounds: 13.8–14.3 ms tiled (64 to 256 rows)
// against 18.2 ms untiled on a 27-point stencil (n = 148 877, 26 entries per
// row); 2.80–2.85 ms either way on the 5-point Dubcova3 stand-in. The fused
// basis steps finish their row sums per tile too (128 to 1 024 rows alike).
const blockRowTile = 256

// MulBlockRows computes rows [lo, hi) of every column of dst = A·x, four
// columns (then three, two or one) per read of a row, serially and unchecked:
// MulBlockPar's range body, and on a block-row distributed rank the whole
// local product, its x columns holding owned values and ghosts (see
// MulVecRows).
func (a *CSR) MulBlockRows(dst, x *vec.Block, lo, hi int) {
	k := x.S()
	if k <= 4 {
		a.mulGroupRows(dst.Cols, x.Cols, lo, hi)
		return
	}
	for t := lo; t < hi; t += blockRowTile {
		te := min(t+blockRowTile, hi)
		for j := 0; j < k; j += 4 {
			a.mulGroupRows(dst.Cols[j:min(j+4, k)], x.Cols[j:min(j+4, k)], t, te)
		}
	}
}

// mulGroupRows is MulBlockRows for one group of one to four columns.
func (a *CSR) mulGroupRows(dst, x [][]float64, lo, hi int) {
	switch len(x) {
	case 1:
		a.MulVecRows(dst[0], x[0], lo, hi)
	case 2:
		a.mulRows2(dst[0], dst[1], x[0], x[1], lo, hi)
	case 3:
		a.mulRows3(dst[0], dst[1], dst[2], x[0], x[1], x[2], lo, hi)
	case 4:
		a.mulRows4(dst[0], dst[1], dst[2], dst[3], x[0], x[1], x[2], x[3], lo, hi)
	}
}

// mulRows2, mulRows3 and mulRows4 are MulVecRows with two, three and four
// accumulators: one walk over the rows' entries, each stored entry multiplied
// into every column's sum, in stored order. The x operands are resliced to
// one length so a single gather bound covers them.
func (a *CSR) mulRows2(d0, d1, x0, x1 []float64, lo, hi int) {
	k, ends, val, col := a.entries(lo, hi)
	rowWalk2Cols(d0[lo:][:len(ends)], d1[lo:][:len(ends)], x0, x1[:len(x0)], k, ends, val, col)
}

// rowWalk2Go is rowWalkGo on two columns, the reference of mulRows2's walk
// (rowWalk2Cols runs its amd64 twin).
func rowWalk2Go(d0, d1, x0, x1 []float64, k int, ends []int, val []float64, col []int) {
	d0, d1, x1 = d0[:len(ends)], d1[:len(ends)], x1[:len(x0)]
	for i, end := range ends {
		var s0, s1 float64
		for ; k < end; k++ {
			v, c := val[k], col[k]
			s0 += v * x0[c]
			s1 += v * x1[c]
		}
		d0[i], d1[i] = s0, s1
	}
}

func (a *CSR) mulRows3(d0, d1, d2, x0, x1, x2 []float64, lo, hi int) {
	x1, x2 = x1[:len(x0)], x2[:len(x0)]
	k, ends, val, col := a.entries(lo, hi)
	d0, d1, d2 = d0[lo:][:len(ends)], d1[lo:][:len(ends)], d2[lo:][:len(ends)]
	for i, end := range ends {
		var s0, s1, s2 float64
		for ; k < end; k++ {
			v, c := val[k], col[k]
			s0 += v * x0[c]
			s1 += v * x1[c]
			s2 += v * x2[c]
		}
		d0[i], d1[i], d2[i] = s0, s1, s2
	}
}

func (a *CSR) mulRows4(d0, d1, d2, d3, x0, x1, x2, x3 []float64, lo, hi int) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	k, ends, val, col := a.entries(lo, hi)
	n := len(ends)
	d0, d1, d2, d3 = d0[lo:][:n], d1[lo:][:n], d2[lo:][:n], d3[lo:][:n]
	for i, end := range ends {
		var s0, s1, s2, s3 float64
		for ; k < end; k++ {
			v, c := val[k], col[k]
			s0 += v * x0[c]
			s1 += v * x1[c]
			s2 += v * x2[c]
			s3 += v * x3[c]
		}
		d0[i], d1[i], d2[i], d3[i] = s0, s1, s2, s3
	}
}

// BasisCol is one column of a matrix-powers step — the one form in which the
// solver, the matrix powers kernel and both backends hand a step's columns on:
//
//	Next[i]  = (Σ_k a_ik·U[k] − theta·Cur[i] − mu·Prev[i]) / gamma
//	UNext[i] = dinv[i]·Next[i]        (when UNext is non-nil)
//
// Prev may be nil (the first recurrence step: the mu term is omitted).
type BasisCol struct{ Next, U, Cur, Prev, UNext []float64 }

// FusedBasisStepPar is FusedBasisSteps on the one column
// {sNext, u, sCur, sPrev, uNext}.
func (a *CSR) FusedBasisStepPar(sNext, u, sCur, sPrev []float64, theta, mu, gamma float64, dinv, uNext []float64) {
	a.FusedBasisSteps([]BasisCol{{sNext, u, sCur, sPrev, uNext}}, theta, mu, gamma, dinv)
}

// FusedBasisSteps advances one to four basis columns that share theta, mu,
// gamma and dinv — CA-PCG's two chains at one degree — in one pass over the
// matrix rows, fusing the SpMV, the three-term recurrence and the diagonal
// preconditioner that the plain MPK runs as three n-length sweeps per column:
// each row's Val/ColIdx is read once into one accumulator per column
// (mulGroupRows). Rows are independent, so every column is bitwise the three
// sweeps on it, for any worker count and whichever columns share the pass.
func (a *CSR) FusedBasisSteps(cols []BasisCol, theta, mu, gamma float64, dinv []float64) {
	n := a.N
	if len(cols) == 0 || len(cols) > 4 {
		panic(fmt.Sprintf("sparse: FusedBasisSteps takes 1 to 4 columns, got %d", len(cols)))
	}
	for _, c := range cols {
		if len(c.Next) != n || len(c.U) != n || len(c.Cur) != n || len(dinv) != n ||
			(c.Prev != nil && len(c.Prev) != n) || (c.UNext != nil && len(c.UNext) != n) {
			panic(fmt.Sprintf("sparse: FusedBasisSteps dim mismatch n=%d", n))
		}
	}
	if gamma == 0 {
		panic("sparse: FusedBasisSteps with zero gamma")
	}
	pool.CountFusedBasisStep()
	bounds := a.parRanges()
	if bounds == nil {
		a.FusedBasisStepRows(cols, theta, mu, gamma, dinv, 0, n)
		return
	}
	pool.Default().RunBounds(bounds, func(_, lo, hi int) {
		a.FusedBasisStepRows(cols, theta, mu, gamma, dinv, lo, hi)
	})
}

// FusedBasisStepRows computes rows [lo, hi) of FusedBasisSteps serially on
// the caller, unchecked and uncounted: the kernel body the pooled step runs
// on each of its ranges, and the whole step of a block-row distributed rank,
// whose U columns hold the owned values followed by the ghosts (see
// MulVecRows). Per row tile the row sums go into every Next and basisTail
// finishes each column.
func (a *CSR) FusedBasisStepRows(cols []BasisCol, theta, mu, gamma float64, dinv []float64, lo, hi int) {
	var next, u [4][]float64
	for j, c := range cols {
		next[j], u[j] = c.Next, c.U
	}
	for t := lo; t < hi; t += blockRowTile {
		te := min(t+blockRowTile, hi)
		a.mulGroupRows(next[:len(cols)], u[:len(cols)], t, te)
		for _, c := range cols {
			basisTail(c, dinv, theta, mu, gamma, t, te)
		}
	}
}

// basisTail finishes rows [lo, hi) of a basis column whose row sums A·U are
// in Next: the three-term recurrence in place, then the diagonal
// preconditioner into UNext when it is non-nil — the kernels the unfused
// matrix powers step runs over the whole column, so fused and unfused agree
// by construction.
func basisTail(c BasisCol, dinv []float64, theta, mu, gamma float64, lo, hi int) {
	s := c.Next[lo:hi]
	var w []float64
	if c.Prev != nil {
		w = c.Prev[lo:hi]
	}
	vec.Threeterm(s, s, theta, c.Cur[lo:hi], mu, w, gamma)
	if c.UNext != nil {
		vec.HadamardInto(c.UNext[lo:hi], dinv[lo:hi], s)
	}
}

// NNZBalancedRanges splits the rows of a into p contiguous ranges with
// approximately equal nnz, returning p+1 row boundaries. This is the same
// partition the virtual cluster uses, so measured shared-memory speedups and
// modeled distributed balance agree.
func NNZBalancedRanges(a *CSR, p int) []int {
	if p < 1 {
		panic("sparse: NNZBalancedRanges needs p ≥ 1")
	}
	bounds := make([]int, p+1)
	total := a.NNZ()
	row := 0
	for w := 1; w < p; w++ {
		target := total * w / p
		for row < a.N && a.RowPtr[row] < target {
			row++
		}
		bounds[w] = row
	}
	bounds[p] = a.N
	return bounds
}

// partsPointer is the cached-partition slot type embedded in CSR (declared
// here to keep the parallel machinery in one file).
type partsPointer = atomic.Pointer[partitionCache]
