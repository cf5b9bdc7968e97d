package sparse

import (
	"math/rand"
	"sync"
	"testing"

	"spcg/internal/vec"
)

// randIrregularCSR builds a random symmetric matrix with highly variable row
// lengths (including empty rows), the structure SELL's σ-window sorting and
// padding accounting must get right.
func randIrregularCSR(n int, rng *rand.Rand) *CSR {
	coo := NewCOO(n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+rng.Float64())
		deg := rng.Intn(8)
		if rng.Intn(5) == 0 {
			deg = 0 // leave some diagonal-only rows
		}
		for k := 0; k < deg; k++ {
			j := rng.Intn(n)
			if j != i {
				coo.AddSym(i, j, -rng.Float64())
			}
		}
	}
	return coo.ToCSR()
}

// csrEqual reports exact structural and value equality.
func csrEqual(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.Dim() != b.Dim() || a.NNZ() != b.NNZ() {
		t.Fatalf("shape mismatch: %dx%d nnz=%d vs %dx%d nnz=%d",
			a.Dim(), a.Dim(), a.NNZ(), b.Dim(), b.Dim(), b.NNZ())
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("RowPtr[%d]: %d != %d", i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			t.Fatalf("entry %d: (%d,%v) != (%d,%v)", k, a.ColIdx[k], a.Val[k], b.ColIdx[k], b.Val[k])
		}
	}
}

// TestSELLRoundTrip: SELLFromCSR∘ToCSR is the identity, across slice
// heights, window sizes, non-multiple-of-C dimensions and empty rows.
func TestSELLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mats := []*CSR{
		Poisson1D(1), Poisson1D(7), Poisson2D(13, 5),
		randIrregularCSR(97, rng), randIrregularCSR(256, rng),
		RandomGraphLaplacian(300, 6, 0.5, 2),
	}
	for mi, a := range mats {
		for _, cs := range [][2]int{{0, 0}, {1, 1}, {4, 4}, {8, 16}, {8, 100}, {3, 7}} {
			se := SELLFromCSR(a, cs[0], cs[1])
			if se.Dim() != a.Dim() || se.nnz != a.NNZ() {
				t.Fatalf("mat %d c=%d σ=%d: dim/nnz mismatch", mi, cs[0], cs[1])
			}
			if se.Sigma()%se.C() != 0 {
				t.Fatalf("σ=%d not a multiple of c=%d", se.Sigma(), se.C())
			}
			csrEqual(t, a, se.ToCSR())
		}
	}
}

// TestSELLPaddingAccounting: the built padding ratio matches the row-length
// estimate the format selector uses, and the stored layout never exceeds it.
func TestSELLPaddingAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, a := range []*CSR{Poisson2D(20, 20), randIrregularCSR(333, rng)} {
		se := SELLFromCSR(a, 0, 0)
		want := EstimatePaddingRatio(a, 0, 0)
		if got := se.PaddingRatio(); got != want {
			t.Fatalf("PaddingRatio %v != estimate %v", got, want)
		}
		if len(se.val) != len(se.col) {
			t.Fatalf("val/col length mismatch")
		}
		if len(se.val) < a.NNZ() {
			t.Fatalf("stored %d < nnz %d", len(se.val), a.NNZ())
		}
	}
}

// TestSELLMulVecBitwiseCSR: SELL stores each row's entries in CSR's
// ascending-column order and accumulates per-row sums sequentially, so the
// drop-in-operator contract is exact bitwise equality, not just tolerance.
func TestSELLMulVecBitwiseCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, a := range []*CSR{Poisson2D(31, 17), randIrregularCSR(500, rng), VarCoeff2D(24, 24, 3, 9)} {
		n := a.Dim()
		se := SELLFromCSR(a, 0, 0)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		got := make([]float64, n)
		a.MulVec(want, x)
		se.MulVec(got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d: SELL %v != CSR %v", i, got[i], want[i])
			}
		}
	}
}

// TestSELLMulVecParMatchesMulVec: slice ranges write disjoint row sets, so
// the pool-dispatched kernel must be bitwise identical to the sequential one
// on a matrix large enough to take the parallel path.
func TestSELLMulVecParMatchesMulVec(t *testing.T) {
	a := VarCoeff2D(90, 90, 3, 11) // nnz ≈ 40k > parSpMVThreshold
	se := SELLFromCSR(a, 0, 0)
	n := a.Dim()
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	seq := make([]float64, n)
	par := make([]float64, n)
	se.MulVec(seq, x)
	se.MulVecPar(par, x)
	for i := range seq {
		if par[i] != seq[i] {
			t.Fatalf("row %d: MulVecPar %v != MulVec %v", i, par[i], seq[i])
		}
	}
}

// TestSELLMulBlockParColumnExact mirrors the CSR batched-SpMV contract on
// the sliced format: every column bitwise equals a sequential MulVec, for
// column counts below, at and above the worker count.
func TestSELLMulBlockParColumnExact(t *testing.T) {
	a := Poisson2D(96, 96)
	se := SELLFromCSR(a, 0, 0)
	n := a.Dim()
	rng := rand.New(rand.NewSource(5))
	for _, s := range []int{1, 2, 3, 8, 17} {
		x := vec.NewBlock(n, s)
		for j := 0; j < s; j++ {
			col := x.Col(j)
			for i := range col {
				col[i] = rng.NormFloat64()
			}
		}
		got := vec.NewBlock(n, s)
		se.MulBlockPar(got, x)
		want := make([]float64, n)
		for j := 0; j < s; j++ {
			a.MulVec(want, x.Col(j))
			for i := 0; i < n; i++ {
				if got.Col(j)[i] != want[i] {
					t.Fatalf("s=%d col %d row %d: %v != %v", s, j, i, got.Col(j)[i], want[i])
				}
			}
		}
	}
}

// TestSELLFusedBasisStepMatchesCSR: the fused MPK kernel applies the same
// per-row arithmetic order as CSR's, so both outputs agree bitwise — with
// and without the sPrev/uNext optional vectors.
func TestSELLFusedBasisStepMatchesCSR(t *testing.T) {
	a := VarCoeff2D(80, 80, 2, 7) // above parSpMVThreshold
	se := SELLFromCSR(a, 0, 0)
	n := a.Dim()
	rng := rand.New(rand.NewSource(6))
	u, sCur, sPrev, dinv := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		u[i], sCur[i], sPrev[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		dinv[i] = 1 / (1 + rng.Float64())
	}
	for _, withOpt := range []bool{true, false} {
		sp, un1, un2 := sPrev, make([]float64, n), make([]float64, n)
		if !withOpt {
			sp, un1, un2 = nil, nil, nil
		}
		want := make([]float64, n)
		got := make([]float64, n)
		a.FusedBasisStepPar(want, u, sCur, sp, 0.37, 0.21, 1.7, dinv, un1)
		se.FusedBasisStepPar(got, u, sCur, sp, 0.37, 0.21, 1.7, dinv, un2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("opt=%v row %d: sNext %v != %v", withOpt, i, got[i], want[i])
			}
			if withOpt && un2[i] != un1[i] {
				t.Fatalf("row %d: uNext %v != %v", i, un2[i], un1[i])
			}
		}
	}
}

// TestSELLConcurrentKernelsSharedPool drives concurrent SpMVs on one shared
// SELL (and the shared default pool) so `go test -race` exercises the
// copy-on-write partition cache and the immutability contract.
func TestSELLConcurrentKernelsSharedPool(t *testing.T) {
	a := VarCoeff2D(90, 90, 3, 13)
	se := SELLFromCSR(a, 0, 0)
	n := a.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17) - 8
	}
	want := make([]float64, n)
	se.MulVec(want, x)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, n)
			for it := 0; it < 5; it++ {
				se.MulVecPar(dst, x)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Errorf("row %d: concurrent MulVecPar %v != %v", i, dst[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSELLRoundTrip fuzzes the conversion parameters and matrix shape:
// CSR→SELL→CSR must be the identity and MulVec bitwise-equal for every
// (n, c, σ, seed).
func FuzzSELLRoundTrip(f *testing.F) {
	f.Add(17, 4, 8, int64(1))
	f.Add(64, 8, 64, int64(2))
	f.Add(1, 1, 1, int64(3))
	f.Add(100, 7, 13, int64(4))
	f.Fuzz(func(t *testing.T, n, c, sigma int, seed int64) {
		if n < 0 {
			n = -n
		}
		n = 1 + n%400
		if c > 64 {
			c = c % 64
		}
		if sigma > 512 {
			sigma = sigma % 512
		}
		rng := rand.New(rand.NewSource(seed))
		a := randIrregularCSR(n, rng)
		se := SELLFromCSR(a, c, sigma)
		csrEqual(t, a, se.ToCSR())
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		got := make([]float64, n)
		a.MulVec(want, x)
		se.MulVec(got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d: %v != %v", i, got[i], want[i])
			}
		}
	})
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
