package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// COO is a coordinate-format builder used to assemble matrices entry by
// entry before conversion to CSR. Duplicate (i,j) entries are summed on
// conversion, matching finite-element assembly semantics, and they are
// summed in insertion order: contributions v1, v2, v3 added in that order
// become (v1 + v2) + v3, whatever the order of the other entries.
type COO struct {
	N    int
	rows []int
	cols []int
	vals []float64
}

// NewCOO returns an empty n×n builder.
func NewCOO(n int) *COO {
	if n < 0 {
		panic("sparse: NewCOO negative dimension")
	}
	return &COO{N: n}
}

// newCOOCap returns an empty n×n builder with room for nnz entries, so a
// generator that knows its entry count assembles without regrowing.
func newCOOCap(n, nnz int) *COO {
	c := NewCOO(n)
	c.rows, c.cols, c.vals = make([]int, 0, nnz), make([]int, 0, nnz), make([]float64, 0, nnz)
	return c
}

// Add appends entry (i,j,v). Zero values are kept (callers may rely on the
// sparsity pattern, e.g. IC(0)).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.N || j < 0 || j >= c.N {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range for n=%d", i, j, c.N))
	}
	c.rows = append(c.rows, i)
	c.cols = append(c.cols, j)
	c.vals = append(c.vals, v)
}

// AddSym appends (i,j,v) and, when i≠j, (j,i,v).
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// ToCSR converts to CSR, sorting columns per row and summing duplicates in
// insertion order.
func (c *COO) ToCSR() *CSR {
	n := c.N
	rowPtr := make([]int, n+1)
	for _, r := range c.rows {
		rowPtr[r+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// Bucket the entries by row in insertion order (a counting sort); a
	// stable sort of each row then keeps duplicates in that order.
	next := slices.Clone(rowPtr[:n])
	ents := make([]colVal, len(c.vals))
	for k, r := range c.rows {
		ents[next[r]] = colVal{c.cols[k], c.vals[k]}
		next[r]++
	}
	colIdx := make([]int, 0, len(ents))
	val := make([]float64, 0, len(ents))
	for i := 0; i < n; i++ {
		row := ents[rowPtr[i]:rowPtr[i+1]]
		slices.SortStableFunc(row, func(a, b colVal) int { return cmp.Compare(a.col, b.col) })
		rowPtr[i] = len(val)
		for k, e := range row {
			if k > 0 && e.col == row[k-1].col {
				val[len(val)-1] += e.val // merge duplicate
				continue
			}
			colIdx = append(colIdx, e.col)
			val = append(val, e.val)
		}
	}
	rowPtr[n] = len(val)
	return &CSR{N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

type colVal struct {
	col int
	val float64
}
