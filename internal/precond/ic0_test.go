package precond

import (
	"fmt"
	"math"
	"testing"

	"spcg/internal/sparse"
)

// ic0MapReference is the factorization as NewIC0 computed it before the
// position map was replaced by a merge of the two sorted rows: every (i, j)
// of the pattern in a hash map, one lookup per candidate column. Kept here to
// pin the merge to the same subtractions in the same order.
func ic0MapReference(a *sparse.CSR) ([]float64, error) {
	n := a.Dim()
	rowPtr := make([]int, n+1)
	diag := make([]int, n)
	var colIdx []int
	var val []float64
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j > i {
				break
			}
			colIdx = append(colIdx, j)
			val = append(val, a.Val[k])
			if j == i {
				diag[i] = len(val) - 1
			}
		}
		rowPtr[i+1] = len(val)
	}
	colPos := make(map[[2]int]int, len(val))
	for i := 0; i < n; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			colPos[[2]int{i, colIdx[k]}] = k
		}
	}
	for i := 0; i < n; i++ {
		for kk := rowPtr[i]; kk < rowPtr[i+1]; kk++ {
			k := colIdx[kk]
			if k == i {
				break
			}
			s := val[kk]
			for ii := rowPtr[i]; ii < kk; ii++ {
				if pos, ok := colPos[[2]int{k, colIdx[ii]}]; ok {
					s -= val[ii] * val[pos]
				}
			}
			val[kk] = s / val[diag[k]]
		}
		d := val[diag[i]]
		for ii := rowPtr[i]; ii < diag[i]; ii++ {
			d -= val[ii] * val[ii]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("breakdown at row %d", i)
		}
		val[diag[i]] = math.Sqrt(d)
	}
	return val, nil
}

// TestIC0MergeMatchesMapReference: the two-pointer build produces the factor
// of the map-based build bit for bit, on stencil, variable-coefficient,
// dense-row and irregular-row patterns.
func TestIC0MergeMatchesMapReference(t *testing.T) {
	cases := map[string]*sparse.CSR{
		"poisson2d":   sparse.Poisson2D(17, 13),
		"varcoeff2d":  sparse.VarCoeff2D(20, 20, 2, 7),
		"poisson3d27": sparse.Poisson3D27(7, 6, 5),
		"varcoeff3d":  sparse.VarCoeff3D(6, 6, 6, 1.5, 3),
		"hubgraph":    sparse.HubGraphLaplacian(600, 4, 50, 40, 0.5, 11),
		"circuit":     sparse.CircuitLaplacian(20, 20, 30, 0.1, 5),
	}
	for name, a := range cases {
		want, err := ic0MapReference(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		p, err := NewIC0(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.val) != len(want) {
			t.Fatalf("%s: %d stored entries, reference %d", name, len(p.val), len(want))
		}
		for k := range want {
			if math.Float64bits(p.val[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: entry %d: merge %v, map reference %v", name, k, p.val[k], want[k])
			}
		}
	}
}

// TestIC0ApplyAllocatesNothing: the forward-solve vector comes out of the
// pool as a pointer, so a warm Apply does not box a slice header per call.
func TestIC0ApplyAllocatesNothing(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	p, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := make([]float64, a.Dim()), make([]float64, a.Dim())
	for i := range src {
		src[i] = float64(i%7) - 3
	}
	p.Apply(dst, src)
	if got := testing.AllocsPerRun(50, func() { p.Apply(dst, src) }); got != 0 {
		t.Errorf("IC0.Apply allocates %v times per call", got)
	}
}
