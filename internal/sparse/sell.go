package sparse

import (
	"fmt"
	"sort"

	"spcg/internal/pool"
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
// A SELL multiplies to the bits of the CSR it was converted from: the
// σ-window sorting permutation stays internal (results are gathered/scattered
// through it), so MulVec computes the same A·x — per-row sums accumulate in
// the same ascending-column order as CSR, padding contributes exact zero
// terms. The solvers and the daemon run on CSR alone; a SELL is built only
// by ChooseFormat's probe and the benchmark's SpMV row, which time it
// against CSR.
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

// sliceHeight returns the number of real rows in slice s (the last slice of
// a non-multiple-of-C matrix is short; no phantom rows are stored).
func (m *SELL) sliceHeight(s int) int {
	h := m.n - s*m.c
	if h > m.c {
		h = m.c
	}
	return h
}

// C returns the slice height.
func (m *SELL) C() int { return m.c }

// Sigma returns the sorting-window size.
func (m *SELL) Sigma() int { return m.sigma }

// Slices returns the slice count.
func (m *SELL) Slices() int { return len(m.width) }

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
