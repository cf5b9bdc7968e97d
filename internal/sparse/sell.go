package sparse

import (
	"fmt"
	"sort"

	"spcg/internal/pool"
	"spcg/internal/vec"
)

// SELL is a SELL-C-σ (sliced ELLPACK) matrix: rows are sorted by descending
// length inside windows of σ rows, grouped into slices of C rows, and each
// slice is stored column-major, padded to its widest row. The layout is the
// node-level storage the related s-step work (D'Ambra et al., Bernaschi et
// al.) uses on accelerators; in this scalar Go engine its win is instruction
// level: the slice-column inner loop carries C independent accumulator
// chains where CSR's row loop carries one, and Val/ColIdx are streamed
// strictly sequentially.
//
// A SELL is a drop-in operator equal to the CSR it was converted from: the
// σ-window sorting permutation stays internal (results are gathered/scattered
// through it), so MulVec computes the same A·x — per-row sums accumulate in
// the same ascending-column order as CSR, padding contributes exact zero
// terms.
//
// Like CSR, a SELL is immutable after construction and safe for concurrent
// kernels.
type SELL struct {
	n     int
	c     int // slice height
	sigma int // sorting-window size (multiple of c)
	nnz   int // stored entries excluding padding

	perm     []int // perm[packed] = original row index
	rowLen   []int // per packed row: stored entries (excludes padding)
	sliceOff []int // len = slices+1; entry offsets into col/val
	width    []int // per slice: widest row
	col      []int
	val      []float64

	// parts caches nnz-balanced slice partitions per worker count, the same
	// copy-on-write scheme CSR uses for row partitions.
	parts partsPointer
}

// DefaultSliceHeight is the default SELL slice height C. Eight rows per
// slice matches the kernel engine's 4-way-unrolled vector kernels' working
// set and keeps the per-slice accumulator block inside registers.
const DefaultSliceHeight = 8

// DefaultSigma is the default sorting-window size σ. Sorting within windows
// of 64 rows flattens row-length variance enough to keep padding small while
// bounding how far the gather/scatter permutation can displace a row from
// its neighbours (x-vector locality).
const DefaultSigma = 64

// SELLFromCSR converts a to SELL-C-σ. c ≤ 0 and sigma ≤ 0 select the
// defaults; sigma is rounded up to a multiple of c so slices never straddle
// a sorting window. The conversion is deterministic: row sorting is stable,
// so equal-length rows keep their relative order.
func SELLFromCSR(a *CSR, c, sigma int) *SELL {
	if c <= 0 {
		c = DefaultSliceHeight
	}
	if sigma <= 0 {
		sigma = DefaultSigma
	}
	if sigma < c {
		sigma = c
	}
	if r := sigma % c; r != 0 {
		sigma += c - r
	}
	n := a.Dim()
	m := &SELL{n: n, c: c, sigma: sigma, nnz: a.NNZ()}

	// σ-window sort: descending row length, stable within each window.
	m.perm = make([]int, n)
	for i := range m.perm {
		m.perm[i] = i
	}
	for w0 := 0; w0 < n; w0 += sigma {
		w1 := w0 + sigma
		if w1 > n {
			w1 = n
		}
		win := m.perm[w0:w1]
		sort.SliceStable(win, func(x, y int) bool {
			return a.RowNNZ(win[x]) > a.RowNNZ(win[y])
		})
	}

	slices := (n + c - 1) / c
	m.width = make([]int, slices)
	m.sliceOff = make([]int, slices+1)
	m.rowLen = make([]int, n)
	for p, old := range m.perm {
		m.rowLen[p] = a.RowNNZ(old)
		if s := p / c; m.rowLen[p] > m.width[s] {
			m.width[s] = m.rowLen[p]
		}
	}
	for s := 0; s < slices; s++ {
		m.sliceOff[s+1] = m.sliceOff[s] + m.width[s]*m.sliceHeight(s)
	}

	total := m.sliceOff[slices]
	m.col = make([]int, total)
	m.val = make([]float64, total)
	for s := 0; s < slices; s++ {
		h := m.sliceHeight(s)
		off := m.sliceOff[s]
		for r := 0; r < h; r++ {
			p := s*c + r
			old := m.perm[p]
			lo := a.RowPtr[old]
			rl := m.rowLen[p]
			// Padding points at the row's last column (its own index for an
			// empty row) with value zero: the padded terms contribute exact
			// zeros while touching an already-hot cache line of x.
			padCol := old
			if rl > 0 {
				padCol = a.ColIdx[lo+rl-1]
			}
			for j := 0; j < m.width[s]; j++ {
				k := off + j*h + r
				if j < rl {
					m.col[k] = a.ColIdx[lo+j]
					m.val[k] = a.Val[lo+j]
				} else {
					m.col[k] = padCol
					// val is already zero.
				}
			}
		}
	}
	return m
}

// ToCSR reconstructs the exact CSR the SELL was converted from: padding is
// dropped via the stored row lengths and rows return to their original
// order, so SELLFromCSR∘ToCSR is the identity on well-formed CSR matrices.
func (m *SELL) ToCSR() *CSR {
	out := &CSR{N: m.n, RowPtr: make([]int, m.n+1)}
	out.ColIdx = make([]int, m.nnz)
	out.Val = make([]float64, m.nnz)
	// First pass: original row lengths.
	for p, old := range m.perm {
		out.RowPtr[old+1] = m.rowLen[p]
	}
	for i := 0; i < m.n; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	for p, old := range m.perm {
		s := p / m.c
		h := m.sliceHeight(s)
		r := p - s*m.c
		off := m.sliceOff[s]
		dst := out.RowPtr[old]
		for j := 0; j < m.rowLen[p]; j++ {
			out.ColIdx[dst+j] = m.col[off+j*h+r]
			out.Val[dst+j] = m.val[off+j*h+r]
		}
	}
	return out
}

// sliceHeight returns the number of real rows in slice s (the last slice of
// a non-multiple-of-C matrix is short; no phantom rows are stored).
func (m *SELL) sliceHeight(s int) int {
	h := m.n - s*m.c
	if h > m.c {
		h = m.c
	}
	return h
}

// Dim returns the matrix dimension n.
func (m *SELL) Dim() int { return m.n }

// NNZ returns the number of stored entries, excluding padding.
func (m *SELL) NNZ() int { return m.nnz }

// C returns the slice height.
func (m *SELL) C() int { return m.c }

// Sigma returns the sorting-window size.
func (m *SELL) Sigma() int { return m.sigma }

// Slices returns the slice count.
func (m *SELL) Slices() int { return len(m.width) }

// PaddingRatio reports padded entries as a fraction of nnz (0 = no padding).
func (m *SELL) PaddingRatio() float64 {
	if m.nnz == 0 {
		return 0
	}
	return float64(len(m.val)-m.nnz) / float64(m.nnz)
}

// mulSlices computes the SpMV rows of slices [lo, hi) into dst. acc must
// have at least c entries and be private to the caller.
func (m *SELL) mulSlices(dst, x, acc []float64, lo, hi int) {
	for s := lo; s < hi; s++ {
		h := m.sliceHeight(s)
		w := m.width[s]
		off := m.sliceOff[s]
		a := acc[:h]
		for r := range a {
			a[r] = 0
		}
		for j := 0; j < w; j++ {
			b := off + j*h
			// Sliced to len(a): the loop's only bounds check is the gather.
			cols := m.col[b : b+h][:len(a)]
			vals := m.val[b : b+h][:len(a)]
			for r := range a {
				a[r] += vals[r] * x[cols[r]]
			}
		}
		base := s * m.c
		for r := 0; r < h; r++ {
			dst[m.perm[base+r]] = a[r]
		}
	}
}

// MulVec computes dst = A·x sequentially. dst must not alias x.
func (m *SELL) MulVec(dst, x []float64) {
	if len(x) != m.n || len(dst) != m.n {
		panic(fmt.Sprintf("sparse: SELL MulVec dim mismatch n=%d len(x)=%d len(dst)=%d", m.n, len(x), len(dst)))
	}
	acc := make([]float64, m.c)
	m.mulSlices(dst, x, acc, 0, m.Slices())
}

// sliceRanges splits the slices into p contiguous ranges of approximately
// equal stored entries (padding included: it is streamed too), memoized per
// p like CSR.balancedRanges.
func (m *SELL) sliceRanges(p int) []int {
	if c := m.parts.Load(); c != nil {
		for _, e := range c.entries {
			if e.p == p {
				return e.bounds
			}
		}
	}
	slices := m.Slices()
	bounds := make([]int, p+1)
	total := m.sliceOff[slices]
	s := 0
	for w := 1; w < p; w++ {
		target := total * w / p
		for s < slices && m.sliceOff[s] < target {
			s++
		}
		bounds[w] = s
	}
	bounds[p] = slices
	old := m.parts.Load()
	var entries []rowPartition
	if old != nil {
		entries = old.entries
		if len(entries) >= maxCachedPartitions {
			entries = entries[1:]
		}
	}
	nc := &partitionCache{entries: append(append([]rowPartition(nil), entries...), rowPartition{p: p, bounds: bounds})}
	m.parts.CompareAndSwap(old, nc)
	return bounds
}

// MulVecPar computes dst = A·x with nnz-balanced slice ranges dispatched on
// the persistent worker pool. Slices write disjoint row sets, so the output
// is identical to MulVec for any worker count.
func (m *SELL) MulVecPar(dst, x []float64) {
	if len(x) != m.n || len(dst) != m.n {
		panic("sparse: SELL MulVecPar dim mismatch")
	}
	p := pool.Default()
	if m.nnz < parSpMVThreshold || p.Workers() == 1 {
		m.MulVec(dst, x)
		return
	}
	pool.CountSpMV()
	workers := p.Workers()
	if workers > m.Slices() {
		workers = m.Slices()
	}
	bounds := m.sliceRanges(workers)
	p.RunBounds(bounds, func(part, lo, hi int) {
		acc := make([]float64, m.c)
		m.mulSlices(dst, x, acc, lo, hi)
	})
}

// MulBlockPar computes the batched SpMV dst_j = A·x_j over a 2-D task grid
// (columns × slice ranges): one pass over the matrix per column, where
// CSR.MulBlockPar makes one per group of four columns, for the same bits.
func (m *SELL) MulBlockPar(dst, x *vec.Block) {
	if !checkBlockShapes("SELL MulBlockPar", m.n, dst, x) {
		return
	}
	s := x.S()
	p := pool.Default()
	if m.nnz*s < parSpMVThreshold || p.Workers() == 1 {
		for j := 0; j < s; j++ {
			m.MulVec(dst.Col(j), x.Col(j))
		}
		return
	}
	pool.CountSpMV()
	rb := (p.Workers() + s - 1) / s
	if rb > m.Slices() {
		rb = m.Slices()
	}
	bounds := m.sliceRanges(rb)
	p.Dispatch(s*rb, func(t int) {
		j, blk := t/rb, t%rb
		lo, hi := bounds[blk], bounds[blk+1]
		if lo < hi {
			acc := make([]float64, m.c)
			m.mulSlices(dst.Col(j), x.Col(j), acc, lo, hi)
		}
	})
}

// fusedSlices advances the basis recurrence for slices [lo, hi): the SELL
// analogue of the CSR fused kernel body, with the same per-row arithmetic
// order so results agree with CSR's to the bit when the row sums do.
func (m *SELL) fusedSlices(sNext, u, sCur, sPrev []float64, theta, mu, inv float64, dinv, uNext, acc []float64, lo, hi int) {
	for s := lo; s < hi; s++ {
		h := m.sliceHeight(s)
		w := m.width[s]
		off := m.sliceOff[s]
		a := acc[:h]
		for r := range a {
			a[r] = 0
		}
		for j := 0; j < w; j++ {
			b := off + j*h
			cols := m.col[b : b+h]
			vals := m.val[b : b+h]
			for r, cidx := range cols {
				a[r] += vals[r] * u[cidx]
			}
		}
		base := s * m.c
		for r := 0; r < h; r++ {
			i := m.perm[base+r]
			v := a[r] - theta*sCur[i]
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
}

// FusedBasisStepPar advances one matrix-powers-kernel basis column in a
// single pass over the slices — the SELL counterpart of CSR's fused SpMV +
// three-term recurrence + diagonal-preconditioner kernel. See
// CSR.FusedBasisStepPar for the recurrence; semantics and cost accounting
// are identical.
func (m *SELL) FusedBasisStepPar(sNext, u, sCur, sPrev []float64, theta, mu, gamma float64, dinv, uNext []float64) {
	n := m.n
	if len(sNext) != n || len(u) != n || len(sCur) != n || len(dinv) != n {
		panic(fmt.Sprintf("sparse: SELL FusedBasisStepPar dim mismatch n=%d", n))
	}
	if sPrev != nil && len(sPrev) != n {
		panic("sparse: SELL FusedBasisStepPar sPrev length mismatch")
	}
	if uNext != nil && len(uNext) != n {
		panic("sparse: SELL FusedBasisStepPar uNext length mismatch")
	}
	if gamma == 0 {
		panic("sparse: SELL FusedBasisStepPar with zero gamma")
	}
	pool.CountFusedBasisStep()
	inv := 1 / gamma
	p := pool.Default()
	if m.nnz < parSpMVThreshold || p.Workers() == 1 {
		acc := make([]float64, m.c)
		m.fusedSlices(sNext, u, sCur, sPrev, theta, mu, inv, dinv, uNext, acc, 0, m.Slices())
		return
	}
	workers := p.Workers()
	if workers > m.Slices() {
		workers = m.Slices()
	}
	bounds := m.sliceRanges(workers)
	p.RunBounds(bounds, func(part, lo, hi int) {
		acc := make([]float64, m.c)
		m.fusedSlices(sNext, u, sCur, sPrev, theta, mu, inv, dinv, uNext, acc, lo, hi)
	})
}
