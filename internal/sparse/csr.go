// Package sparse provides the sparse-matrix substrate: CSR storage, sparse
// matrix-vector products (sequential and row-partitioned parallel), SPD
// diagnostics, problem generators for every matrix class used in the paper's
// evaluation, and MatrixMarket I/O.
package sparse

import (
	"fmt"
	"math"
	"math/bits"
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

	// maxRowCache memoizes MaxRowNNZ. Zero means "not computed" (matrices
	// are built by struct literal throughout this package), so it stores
	// max+1; it is an atomic so concurrent readers of a shared matrix stay
	// race-free.
	maxRowCache atomic.Int64
}

// intBytes is the size of an int, the element type of the index arrays.
const intBytes = bits.UintSize / 8

// Bytes returns the size of the stored arrays (RowPtr, ColIdx, Val).
func (a *CSR) Bytes() int64 {
	return int64(len(a.RowPtr)+len(a.ColIdx))*intBytes + int64(len(a.Val))*8
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

// MulVecRows computes dst[lo:hi] = (A·x)[lo:hi], each row summed from +0 in
// stored order: the local part of a block-row distributed SpMV (x must
// already include ghost values, i.e. be the full vector).
func (a *CSR) MulVecRows(dst, x []float64, lo, hi int) {
	k, ends, val, col := a.entries(lo, hi)
	dst = dst[lo:][:len(ends)]
	for i, end := range ends {
		var s float64
		for ; k < end; k++ {
			s += val[k] * x[col[k]]
		}
		dst[i] = s
	}
}

// entries is what a row kernel walks for rows [lo, hi): row lo's first entry
// k, the rows' end pointers, and Val and ColIdx up to the last row's end. One
// index runs from k through val and col, row lo+i ending where it reaches
// ends[i], instead of slicing Val and ColIdx per row (DESIGN.md).
func (a *CSR) entries(lo, hi int) (k int, ends []int, val []float64, col []int) {
	rows := a.RowPtr[lo : hi+1]
	val = a.Val[:rows[hi-lo]]
	return rows[0], rows[1:], val, a.ColIdx[:len(val)]
}

// Diag returns the main diagonal (zeros for missing entries) in a new slice
// the caller owns. It is a plain scan, not memoized: its callers (Jacobi and
// SSOR builds, the rank runtime's per-solve local matrices) run once per
// set-up and keep the slice, so a memo would only pin a second n-vector per
// matrix for the life of the process.
func (a *CSR) Diag() []float64 {
	d := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				d[i] = a.Val[k]
				break
			}
		}
	}
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

// Scale multiplies all stored values by alpha.
func (a *CSR) Scale(alpha float64) {
	for i := range a.Val {
		a.Val[i] *= alpha
	}
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
