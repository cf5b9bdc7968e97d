package precond

import (
	"fmt"
	"math"
	"sync"

	"spcg/internal/sparse"
)

// IC0 is the zero-fill incomplete Cholesky preconditioner M = L·Lᵀ where L
// has the sparsity pattern of the lower triangle of A. Like SSOR, the
// triangular solves are processor-local in the distributed interpretation.
type IC0 struct {
	n      int
	rowPtr []int // CSR of L (lower triangle incl. diagonal)
	colIdx []int
	val    []float64
	diag   []int     // position of the diagonal entry in each row of L
	y      sync.Pool // of *[]float64, the forward-solve vector: Apply is concurrency-safe
}

// NewIC0 computes the IC(0) factorization. Returns an error if a pivot
// becomes non-positive (possible for general SPD matrices; guaranteed safe
// for M-matrices such as the stencil generators).
func NewIC0(a *sparse.CSR) (*IC0, error) {
	n := a.Dim()
	// Extract the lower triangle (columns sorted, diagonal last per row),
	// counted first so the factor is allocated once at its size: growing it by
	// append allocates three times the bytes in a dozen large objects, and in
	// a process that has just freed a large heap those allocations were most
	// of the build (Dubcova3, after freeing 1 GiB: 270 ms grown, 45 ms
	// counted; 18 ms against 5–9 ms on a warm heap).
	lower := 0
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1] && a.ColIdx[k] <= i; k++ {
			lower++
		}
	}
	p := &IC0{n: n, rowPtr: make([]int, n+1), diag: make([]int, n),
		colIdx: make([]int, 0, lower), val: make([]float64, 0, lower)}
	p.y.New = func() any { y := make([]float64, n); return &y }
	for i := 0; i < n; i++ {
		hasDiag := false
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j > i {
				break
			}
			p.colIdx = append(p.colIdx, j)
			p.val = append(p.val, a.Val[k])
			if j == i {
				hasDiag = true
				p.diag[i] = len(p.val) - 1
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("%w: row %d has no stored diagonal", ErrZeroDiagonal, i)
		}
		p.rowPtr[i+1] = len(p.val)
	}
	// Up-looking IC(0): for each row i, for each k < i in pattern,
	// l_ik = (a_ik − Σ_{j<k} l_ij·l_kj) / l_kk ; l_ii = sqrt(a_ii − Σ l_ij²).
	for i := 0; i < n; i++ {
		for kk := p.rowPtr[i]; kk < p.rowPtr[i+1]; kk++ {
			k := p.colIdx[kk]
			if k == i {
				break
			}
			s := p.val[kk]
			// Sparse dot of rows i and k over columns < k: both rows are
			// sorted, so one merge finds the shared columns, in row i's order.
			kp, kend := p.rowPtr[k], p.diag[k]
			for ii := p.rowPtr[i]; ii < kk && kp < kend; ii++ {
				j := p.colIdx[ii]
				for kp < kend && p.colIdx[kp] < j {
					kp++
				}
				if kp < kend && p.colIdx[kp] == j {
					s -= p.val[ii] * p.val[kp]
				}
			}
			p.val[kk] = s / p.val[p.diag[k]]
		}
		d := p.val[p.diag[i]]
		for ii := p.rowPtr[i]; ii < p.diag[i]; ii++ {
			d -= p.val[ii] * p.val[ii]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("precond: IC(0) breakdown at row %d (pivot %v)", i, d)
		}
		p.val[p.diag[i]] = math.Sqrt(d)
	}
	return p, nil
}

// Apply solves L·Lᵀ·dst = src.
func (p *IC0) Apply(dst, src []float64) {
	if len(dst) != p.n || len(src) != p.n {
		panic("precond: IC0 Apply dim mismatch")
	}
	yp := p.y.Get().(*[]float64)
	defer p.y.Put(yp)
	y := *yp
	// Forward L·y = src.
	for i := 0; i < p.n; i++ {
		s := src[i]
		for k := p.rowPtr[i]; k < p.diag[i]; k++ {
			s -= p.val[k] * y[p.colIdx[k]]
		}
		y[i] = s / p.val[p.diag[i]]
	}
	// Backward Lᵀ·dst = y: accumulate column-wise.
	copy(dst, y)
	for i := p.n - 1; i >= 0; i-- {
		dst[i] /= p.val[p.diag[i]]
		xi := dst[i]
		for k := p.rowPtr[i]; k < p.diag[i]; k++ {
			dst[p.colIdx[k]] -= p.val[k] * xi
		}
	}
}

// Dim returns n.
func (p *IC0) Dim() int { return p.n }

// Name returns "ic0".
func (p *IC0) Name() string { return "ic0" }

// Flops counts the two triangular sweeps.
func (p *IC0) Flops() float64 { return 4*float64(len(p.val)) + 2*float64(p.n) }

// HaloExchanges returns 0 (local sweeps).
func (p *IC0) HaloExchanges() int { return 0 }
