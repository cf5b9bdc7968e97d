// Package sparse provides the sparse-matrix substrate: CSR storage, sparse
// matrix-vector products (sequential and row-partitioned parallel), SPD
// diagnostics, problem generators for every matrix class used in the paper's
// evaluation, and MatrixMarket I/O.
package sparse

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// CSR is a compressed-sparse-row matrix. RowPtr has length N+1; ColIdx and
// Val have length NNZ with column indices sorted within each row.
type CSR struct {
	N      int // rows == cols; all solver matrices are square
	RowPtr []int
	ColIdx []int
	Val    []float64

	// parts caches nnz-balanced row partitions for the pool-dispatched
	// kernels (see parallel.go). Lazily filled; never copied by value.
	parts partsPointer

	// diagCache and maxRowCache memoize Diag and MaxRowNNZ: preconditioner
	// setup and format selection call both repeatedly on the same immutable
	// matrix. Zero values mean "not computed" (matrices are built by struct
	// literal throughout this package), so maxRowCache stores max+1.
	// Scale and AddDiag invalidate; both are atomics so concurrent readers
	// of a shared matrix stay race-free.
	diagCache   atomic.Pointer[[]float64]
	maxRowCache atomic.Int64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// Dim returns the matrix dimension n.
func (a *CSR) Dim() int { return a.N }

// MulVec computes dst = A·x sequentially. dst must not alias x.
func (a *CSR) MulVec(dst, x []float64) {
	if len(x) != a.N || len(dst) != a.N {
		panic(fmt.Sprintf("sparse: MulVec dim mismatch n=%d len(x)=%d len(dst)=%d", a.N, len(x), len(dst)))
	}
	a.MulVecRows(dst, x, 0, a.N)
}

// MulVecRows computes dst[lo:hi] = (A·x)[lo:hi]: the local part of a
// block-row distributed SpMV (x must already include ghost values, i.e. be
// the full vector).
func (a *CSR) MulVecRows(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = a.rowDot(i, x)
	}
}

// rowDot returns Σ_k a_ik·x[k], summed in stored (ascending-column) order.
// The row's values and column indices are sliced once, so the loop carries
// one bounds check (the gather x[c]) instead of three.
func (a *CSR) rowDot(i int, x []float64) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	vals := a.Val[lo:hi]
	cols := a.ColIdx[lo:hi][:len(vals)]
	var s float64
	for k, v := range vals {
		s += v * x[cols[k]]
	}
	return s
}

// Diag returns a copy of the main diagonal (zeros for missing entries).
// The scan is memoized; callers own the returned slice.
func (a *CSR) Diag() []float64 {
	if p := a.diagCache.Load(); p != nil {
		return append([]float64(nil), (*p)...)
	}
	d := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				d[i] = a.Val[k]
				break
			}
		}
	}
	cached := append([]float64(nil), d...)
	a.diagCache.Store(&cached)
	return d
}

// At returns element (i,j) (zero if not stored). O(log nnz(row)).
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	k := lo + sort.SearchInts(a.ColIdx[lo:hi], j)
	if k < hi && a.ColIdx[k] == j {
		return a.Val[k]
	}
	return 0
}

// IsSymmetric reports whether |a_ij − a_ji| ≤ tol·max|a| for all stored
// entries (checking both triangles).
func (a *CSR) IsSymmetric(tol float64) bool {
	var scale float64
	for _, v := range a.Val {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	bound := tol * (1 + scale)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if math.Abs(a.Val[k]-a.At(j, i)) > bound {
				return false
			}
		}
	}
	return true
}

// Gershgorin returns an interval [lo, hi] containing all eigenvalues by
// Gershgorin's circle theorem. For SPD matrices lo is additionally clamped
// at 0 is NOT done — callers needing positivity should max(lo, tiny).
func (a *CSR) Gershgorin() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < a.N; i++ {
		var d, r float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				d = a.Val[k]
			} else {
				r += math.Abs(a.Val[k])
			}
		}
		if d-r < lo {
			lo = d - r
		}
		if d+r > hi {
			hi = d + r
		}
	}
	return lo, hi
}

// RowNNZ returns the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// MaxRowNNZ returns the maximum entries in any row (memoized; row lengths
// never change after construction, so nothing invalidates it).
func (a *CSR) MaxRowNNZ() int {
	if v := a.maxRowCache.Load(); v > 0 {
		return int(v - 1)
	}
	m := 0
	for i := 0; i < a.N; i++ {
		if r := a.RowNNZ(i); r > m {
			m = r
		}
	}
	a.maxRowCache.Store(int64(m + 1))
	return m
}

// invalidateValueCaches drops memoized views of Val after a mutation.
func (a *CSR) invalidateValueCaches() {
	a.diagCache.Store(nil)
}

// Scale multiplies all stored values by alpha.
func (a *CSR) Scale(alpha float64) {
	for i := range a.Val {
		a.Val[i] *= alpha
	}
	a.invalidateValueCaches()
}

// AddDiag adds alpha to every diagonal entry (the entry must be stored;
// all generators in this package store full diagonals).
func (a *CSR) AddDiag(alpha float64) {
	for i := 0; i < a.N; i++ {
		found := false
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				a.Val[k] += alpha
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("sparse: AddDiag row %d has no stored diagonal", i))
		}
	}
	a.invalidateValueCaches()
}

// Dense returns the matrix as row-major dense data (test helper; panics for
// n > 4096 to catch accidental use on large problems).
func (a *CSR) Dense() []float64 {
	if a.N > 4096 {
		panic("sparse: Dense called on large matrix")
	}
	d := make([]float64, a.N*a.N)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i*a.N+a.ColIdx[k]] = a.Val[k]
		}
	}
	return d
}
