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

// maxCachedPartitions bounds the cache: solves use one or two distinct
// partition widths (SpMV workers, block-SpMV row blocks), so a handful covers
// every caller without growing with traffic.
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

// MulBlockPar computes the batched SpMV dst_j = A·x_j over a genuinely 2-D
// task grid — columns × nnz-balanced row blocks — so the solve service's
// multi-RHS batch solves keep every pool worker busy even when the column
// count is below the worker count (and row-block reuse of A's tiles is
// preserved when it is above). Each (column, row-range) cell is independent,
// so the output is bitwise identical to per-column MulVec.
func (a *CSR) MulBlockPar(dst, x *vec.Block) {
	s := x.S()
	if dst.S() != s {
		panic("sparse: MulBlockPar column-count mismatch")
	}
	if s == 0 {
		return
	}
	if dst.N != a.N || x.N != a.N {
		panic("sparse: MulBlockPar dim mismatch")
	}
	p := pool.Default()
	if a.NNZ()*s < parSpMVThreshold || p.Workers() == 1 {
		for j := 0; j < s; j++ {
			a.MulVec(dst.Col(j), x.Col(j))
		}
		return
	}
	pool.CountSpMV()
	// Row blocks per column: enough that columns × blocks covers the pool.
	rb := (p.Workers() + s - 1) / s
	if rb > a.N {
		rb = a.N
	}
	bounds := a.balancedRanges(rb)
	p.Dispatch(s*rb, func(t int) {
		j, blk := t/rb, t%rb
		lo, hi := bounds[blk], bounds[blk+1]
		if lo < hi {
			a.MulVecRows(dst.Col(j), x.Col(j), lo, hi)
		}
	})
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
