package vec

import "fmt"

// Block is an n×s tall-skinny multivector stored as s contiguous columns of
// length n. The s-step basis matrices S⁽ᵏ⁾, U⁽ᵏ⁾ and the search-direction
// blocks P⁽ᵏ⁾, AP⁽ᵏ⁾ are Blocks. Column storage keeps the matrix powers
// kernel (which appends one column at a time) allocation-free after setup and
// makes "apply an s×s coefficient matrix from the right" a sequence of fused
// axpys — the BLAS3-style operation the paper credits sPCG's performance to.
type Block struct {
	N    int
	Cols [][]float64
}

// NewBlock allocates an n×s block of zeros backed by a single allocation.
func NewBlock(n, s int) *Block {
	if n < 0 || s < 0 {
		panic(fmt.Sprintf("vec: NewBlock invalid shape %d×%d", n, s))
	}
	backing := make([]float64, n*s)
	cols := make([][]float64, s)
	for j := range cols {
		cols[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	return &Block{N: n, Cols: cols}
}

// S returns the number of columns.
func (b *Block) S() int { return len(b.Cols) }

// Col returns column j (a view, not a copy).
func (b *Block) Col(j int) []float64 { return b.Cols[j] }

// Zero clears all columns.
func (b *Block) Zero() {
	for _, c := range b.Cols {
		Zero(c)
	}
}

// CopyFrom copies the columns of src into b. Shapes must match.
func (b *Block) CopyFrom(src *Block) {
	if b.N != src.N || b.S() != src.S() {
		panic("vec: Block CopyFrom shape mismatch")
	}
	for j, c := range src.Cols {
		copy(b.Cols[j], c)
	}
}

// Clone returns a deep copy of b.
func (b *Block) Clone() *Block {
	nb := NewBlock(b.N, b.S())
	nb.CopyFrom(b)
	return nb
}

// View returns a Block sharing columns lo..hi (half-open) of b.
func (b *Block) View(lo, hi int) *Block {
	if lo < 0 || hi > b.S() || lo > hi {
		panic(fmt.Sprintf("vec: Block View [%d,%d) out of range 0..%d", lo, hi, b.S()))
	}
	return &Block{N: b.N, Cols: b.Cols[lo:hi]}
}

// MulVec computes dst = X·c where X is the n×s block and c has length s:
// a tall-skinny GEMV, dst_i = Σ_j X_{ij} c_j. dst must not alias a column.
func (b *Block) MulVec(dst []float64, c []float64) {
	if len(c) != b.S() {
		panic(fmt.Sprintf("vec: Block MulVec coefficient length %d != %d columns", len(c), b.S()))
	}
	if len(dst) != b.N {
		panic("vec: Block MulVec dst length mismatch")
	}
	Zero(dst)
	for j, col := range b.Cols {
		Axpy(c[j], col, dst)
	}
}

// MulVecAdd computes dst += X·c.
func (b *Block) MulVecAdd(dst []float64, c []float64) {
	if len(c) != b.S() {
		panic("vec: Block MulVecAdd coefficient length mismatch")
	}
	for j, col := range b.Cols {
		Axpy(c[j], col, dst)
	}
}

// MulVecSub computes dst -= X·c.
func (b *Block) MulVecSub(dst []float64, c []float64) {
	if len(c) != b.S() {
		panic("vec: Block MulVecSub coefficient length mismatch")
	}
	for j, col := range b.Cols {
		Axpy(-c[j], col, dst)
	}
}

// Gram computes the sᵃ×sᵇ matrix Xᵀ·Y (row-major, row i = column i of X
// against all columns of Y). This is the local part of the s-step methods'
// single global reduction.
func Gram(x, y *Block) []float64 {
	if x.N != y.N {
		panic("vec: Gram row-count mismatch")
	}
	sa, sb := x.S(), y.S()
	out := make([]float64, sa*sb)
	for i := 0; i < sa; i++ {
		xi := x.Cols[i]
		for j := 0; j < sb; j++ {
			out[i*sb+j] = Dot(xi, y.Cols[j])
		}
	}
	return out
}

// GramVec computes the length-s vector Xᵀ·v.
func GramVec(x *Block, v []float64) []float64 {
	out := make([]float64, x.S())
	for i, col := range x.Cols {
		out[i] = Dot(col, v)
	}
	return out
}

// AddMul computes dst = Y + X·C where C is sₓ×s_dst row-major (C[i*s+j]
// multiplies column i of X into column j of dst): the search-direction update
// P⁽ᵏ⁾ = U⁽ᵏ⁾ + P⁽ᵏ⁻¹⁾B⁽ᵏ⁾ of Algorithms 2 and 5. dst must not share
// columns with x; dst may equal y.
func AddMul(dst, y, x *Block, c []float64) {
	sx, sd := x.S(), dst.S()
	if y.S() != sd || len(c) != sx*sd || y.N != x.N || dst.N != x.N {
		panic("vec: AddMul shape mismatch")
	}
	for j := 0; j < sd; j++ {
		d, yc := dst.Cols[j], y.Cols[j]
		if &d[0] != &yc[0] {
			copy(d, yc)
		}
		for i := 0; i < sx; i++ {
			Axpy(c[i*sd+j], x.Cols[i], d)
		}
	}
}

// Mul computes dst = X·C (as AddMul with Y = 0).
func Mul(dst, x *Block, c []float64) {
	sx, sd := x.S(), dst.S()
	if len(c) != sx*sd || dst.N != x.N {
		panic("vec: Mul shape mismatch")
	}
	for j := 0; j < sd; j++ {
		d := dst.Cols[j]
		Zero(d)
		for i := 0; i < sx; i++ {
			Axpy(c[i*sd+j], x.Cols[i], d)
		}
	}
}
