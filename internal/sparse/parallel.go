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
	p := pool.Default()
	if a.NNZ() < parSpMVThreshold || p.Workers() == 1 {
		a.MulVec(dst, x)
		return
	}
	pool.CountSpMV()
	workers := p.Workers()
	if workers > a.N {
		workers = a.N
	}
	bounds := a.balancedRanges(workers)
	p.RunBounds(bounds, func(part, lo, hi int) {
		a.MulVecRows(dst, x, lo, hi)
	})
}

// MulBlockPar computes the multi-vector SpMV dst_j = A·x_j in one pass over
// the matrix per group of up to four columns: nnz-balanced row ranges on the
// pool exactly as MulVecPar (same partition, same inline-or-pooled rule), and
// within a range every row's Val/ColIdx is read once per column group and
// feeds one accumulator per column. Each column is summed in stored order, so
// it is bitwise identical to MulVec on that column, for any worker count. The
// solvers' paired product (true residual + next direction, k = 2) and the
// solve service's coalesced batches both run on it. No dst column may alias
// an x column.
func (a *CSR) MulBlockPar(dst, x *vec.Block) {
	if !checkBlockShapes("MulBlockPar", a.N, dst, x) {
		return
	}
	p := pool.Default()
	if a.NNZ() < parSpMVThreshold || p.Workers() == 1 {
		a.mulBlockRows(dst, x, 0, a.N)
		return
	}
	pool.CountSpMV()
	workers := p.Workers()
	if workers > a.N {
		workers = a.N
	}
	bounds := a.balancedRanges(workers)
	p.RunBounds(bounds, func(part, lo, hi int) {
		a.mulBlockRows(dst, x, lo, hi)
	})
}

// checkBlockShapes panics on a block-SpMV shape or aliasing error and reports
// whether there is any column to compute.
func checkBlockShapes(kernel string, n int, dst, x *vec.Block) bool {
	s := x.S()
	if dst.S() != s {
		panic("sparse: " + kernel + " column-count mismatch")
	}
	if s == 0 {
		return false
	}
	if dst.N != n || x.N != n {
		panic("sparse: " + kernel + " dim mismatch")
	}
	for j := range x.Cols {
		if len(dst.Cols[j]) != n || len(x.Cols[j]) != n {
			panic("sparse: " + kernel + " dim mismatch")
		}
	}
	for _, d := range dst.Cols {
		for _, c := range x.Cols {
			if n > 0 && &d[0] == &c[0] {
				panic("sparse: " + kernel + " dst aliases x")
			}
		}
	}
	return true
}

// blockRowTile is how many rows mulBlockRows finishes for every column group
// before moving on, so that with more than four columns the later groups find
// the tile's Val/ColIdx in cache instead of streaming them from memory again.
// Serial, k = 8, 40 interleaved rounds: 13.8–14.3 ms tiled (64 to 256 rows)
// against 18.2 ms untiled on a 27-point stencil (n = 148 877, 26 entries per
// row); 2.80–2.85 ms either way on the 5-point Dubcova3 stand-in.
const blockRowTile = 256

// mulBlockRows computes rows [lo, hi) of every column of dst = A·x, four
// columns (then three, two or one) per read of a row.
func (a *CSR) mulBlockRows(dst, x *vec.Block, lo, hi int) {
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

// mulGroupRows is mulBlockRows for one group of one to four columns.
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

// mulRows2, mulRows3 and mulRows4 are rowDot with two, three and four
// accumulators: the row's values and column indices are sliced once and each
// stored entry is multiplied into every column's sum, in stored order. The
// x operands are resliced to one length so a single gather bound covers them.
func (a *CSR) mulRows2(d0, d1, x0, x1 []float64, lo, hi int) {
	x1 = x1[:len(x0)]
	for i := lo; i < hi; i++ {
		rlo, rhi := a.RowPtr[i], a.RowPtr[i+1]
		vals := a.Val[rlo:rhi]
		cols := a.ColIdx[rlo:rhi][:len(vals)]
		var s0, s1 float64
		for k, v := range vals {
			c := cols[k]
			s0 += v * x0[c]
			s1 += v * x1[c]
		}
		d0[i], d1[i] = s0, s1
	}
}

func (a *CSR) mulRows3(d0, d1, d2, x0, x1, x2 []float64, lo, hi int) {
	x1, x2 = x1[:len(x0)], x2[:len(x0)]
	for i := lo; i < hi; i++ {
		rlo, rhi := a.RowPtr[i], a.RowPtr[i+1]
		vals := a.Val[rlo:rhi]
		cols := a.ColIdx[rlo:rhi][:len(vals)]
		var s0, s1, s2 float64
		for k, v := range vals {
			c := cols[k]
			s0 += v * x0[c]
			s1 += v * x1[c]
			s2 += v * x2[c]
		}
		d0[i], d1[i], d2[i] = s0, s1, s2
	}
}

func (a *CSR) mulRows4(d0, d1, d2, d3, x0, x1, x2, x3 []float64, lo, hi int) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for i := lo; i < hi; i++ {
		rlo, rhi := a.RowPtr[i], a.RowPtr[i+1]
		vals := a.Val[rlo:rhi]
		cols := a.ColIdx[rlo:rhi][:len(vals)]
		var s0, s1, s2, s3 float64
		for k, v := range vals {
			c := cols[k]
			s0 += v * x0[c]
			s1 += v * x1[c]
			s2 += v * x2[c]
			s3 += v * x3[c]
		}
		d0[i], d1[i], d2[i], d3[i] = s0, s1, s2, s3
	}
}

// FusedBasisStepPar advances one matrix-powers-kernel basis column in a
// single pass over the matrix rows:
//
//	sNext[i] = (Σ_k a_ik·u[k] − theta·sCur[i] − mu·sPrev[i]) / gamma
//	uNext[i] = dinv[i]·sNext[i]        (when uNext is non-nil)
//
// fusing the SpMV, the three-term basis recurrence and the diagonal
// preconditioner application that the plain MPK performs as three separate
// n-length sweeps — eliminating the intermediate z vector and one full
// vector stream per basis column. sPrev may be nil (first recurrence step,
// mu term omitted). Row results are independent, so the kernel is
// deterministic for any worker count.
func (a *CSR) FusedBasisStepPar(sNext, u, sCur, sPrev []float64, theta, mu, gamma float64, dinv, uNext []float64) {
	n := a.N
	if len(sNext) != n || len(u) != n || len(sCur) != n || len(dinv) != n {
		panic(fmt.Sprintf("sparse: FusedBasisStepPar dim mismatch n=%d", n))
	}
	if sPrev != nil && len(sPrev) != n {
		panic("sparse: FusedBasisStepPar sPrev length mismatch")
	}
	if uNext != nil && len(uNext) != n {
		panic("sparse: FusedBasisStepPar uNext length mismatch")
	}
	if gamma == 0 {
		panic("sparse: FusedBasisStepPar with zero gamma")
	}
	pool.CountFusedBasisStep()
	inv := 1 / gamma
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := a.rowDot(i, u) - theta*sCur[i]
			if sPrev != nil {
				v -= mu * sPrev[i]
			}
			v *= inv
			sNext[i] = v
			if uNext != nil {
				uNext[i] = dinv[i] * v
			}
		}
	}
	p := pool.Default()
	if a.NNZ() < parSpMVThreshold || p.Workers() == 1 {
		body(0, n)
		return
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	bounds := a.balancedRanges(workers)
	p.RunBounds(bounds, func(part, lo, hi int) {
		body(lo, hi)
	})
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
