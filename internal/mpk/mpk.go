// Package mpk implements the Matrix Powers Kernel (paper §2.3, Eq. 6–7): it
// generates the s-step basis matrices
//
//	V    = [P₀(AM⁻¹)w, P₁(AM⁻¹)w, …, P_s(AM⁻¹)w]
//	M⁻¹V = [P₀(M⁻¹A)v, P₁(M⁻¹A)v, …]  with v = M⁻¹w
//
// column by column from the three-term recurrence of the chosen basis type,
// at the cost of one SpMV and one preconditioner application per new column.
// Identity used throughout: P_l(M⁻¹A)·M⁻¹w = M⁻¹·P_l(AM⁻¹)·w, so the second
// block is exactly M⁻¹ applied to the first.
//
// The kernel is written against small operator interfaces so the solvers can
// pass instrumented wrappers (which charge the distributed cost model) while
// tests pass raw matrices.
package mpk

import (
	"fmt"

	"spcg/internal/basis"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// Operator applies a square matrix: dst = A·src.
type Operator interface {
	Dim() int
	MulVec(dst, src []float64)
}

// Preconditioner applies M⁻¹: dst = M⁻¹·src.
type Preconditioner interface {
	Apply(dst, src []float64)
}

// BasisStepper is an optional capability of Operator: a fused kernel that
// advances one basis column — SpMV, three-term recurrence and (diagonal)
// preconditioner application — in a single pass over the matrix rows,
// eliminating the intermediate z vector and one full vector stream per
// column. FusedBasisStep computes
//
//	sNext = (A·u − theta·sCur − mu·sPrev)/gamma
//	uNext = M⁻¹·sNext   (when uNext is non-nil)
//
// and returns false when the fusion is unavailable (e.g. a non-diagonal
// preconditioner, or instrumentation that must observe the raw SpMV), in
// which case Compute falls back to the separate kernels. sPrev may be nil.
type BasisStepper interface {
	FusedBasisStep(sNext, u, sCur, sPrev []float64, theta, mu, gamma float64, uNext []float64) bool
}

// ColumnStepper is an optional capability of Operator: BasisStepper for the
// columns of the chains that reach a degree, cols[:k] (k = 1 or 2), in one
// pass over the matrix rows; every chain runs one recurrence (theta, mu,
// gamma). cols is an array because a slice handed through an interface
// escapes to the heap.
type ColumnStepper interface {
	FusedBasisSteps(cols [2]sparse.BasisCol, k int, theta, mu, gamma float64) bool
}

// PairMultiplier is an optional capability of Operator: dst[j] = A·src[j]
// for both columns in one pass over the matrix, each bitwise MulVec.
type PairMultiplier interface {
	MulVecPair(dst, src [2][]float64)
}

// Compute fills S (n×(s+1)) with the basis of K_{s+1}(AM⁻¹, w) and U
// (n×sU, sU ∈ {s, s+1}) with M⁻¹ times the first sU columns of S.
//
// w is copied into S column 0. u0, when non-nil, must equal M⁻¹w and is
// copied into U column 0, saving one preconditioner application (the s-step
// solvers always have u⁽ᵏ⁾ = M⁻¹r⁽ᵏ⁾ in hand); when nil it is computed.
//
// Cost: s SpMVs and sU−1 preconditioner applications (plus one if u0 is nil).
func Compute(a Operator, m Preconditioner, params *basis.Params, w, u0 []float64, s *vec.Block, u *vec.Block) error {
	return compute(a, m, params, []Chain{{W: w, U0: u0, S: s, U: u}})
}

// Chain is one basis for ComputePair: what Compute takes as w, u0, S and U.
type Chain struct {
	W, U0 []float64
	S, U  *vec.Block
}

// ComputePair is Compute on two chains of one basis recurrence — CA-PCG's Q
// (degree s) and R̂ (degree s−1). At every degree both chains reach, their new
// columns come out of one pass over the matrix: a ColumnStepper step when the
// operator offers one, else a PairMultiplier product; an operator with neither
// steps them one after the other. Every column is bitwise what Compute gives
// on its chain alone, and the cost is the two Computes' cost.
func ComputePair(a Operator, m Preconditioner, params *basis.Params, first, second Chain) error {
	return compute(a, m, params, []Chain{first, second})
}

// check validates one chain against the operator and the basis.
func (ch Chain) check(n int, params *basis.Params) error {
	sCols, uCols := ch.S.S(), ch.U.S()
	deg := sCols - 1
	if deg < 1 {
		return fmt.Errorf("mpk: S needs at least 2 columns, got %d", sCols)
	}
	if uCols != deg && uCols != sCols {
		return fmt.Errorf("mpk: U must have %d or %d columns, got %d", deg, sCols, uCols)
	}
	if params.Degree() < deg {
		return fmt.Errorf("mpk: basis degree %d < required %d", params.Degree(), deg)
	}
	if ch.S.N != n || ch.U.N != n || len(ch.W) != n {
		return fmt.Errorf("mpk: dimension mismatch (n=%d, S rows %d, U rows %d, len(w)=%d)", n, ch.S.N, ch.U.N, len(ch.W))
	}
	return nil
}

// column is one chain's operands at degree l: S_{l+1} from A·U_l, S_l and
// S_{l−1}, then U_{l+1} = M⁻¹S_{l+1} when the chain has that column.
func (ch Chain) column(l int) sparse.BasisCol {
	c := sparse.BasisCol{Next: ch.S.Col(l + 1), U: ch.U.Col(l), Cur: ch.S.Col(l)}
	if l > 0 {
		c.Prev = ch.S.Col(l - 1)
	}
	if l+1 < ch.U.S() {
		c.UNext = ch.U.Col(l + 1)
	}
	return c
}

// compute is Compute and ComputePair: one loop over the degrees, in which the
// chains that reach a degree advance together.
func compute(a Operator, m Preconditioner, params *basis.Params, chains []Chain) error {
	deg := 0
	for _, ch := range chains {
		if err := ch.check(a.Dim(), params); err != nil {
			return err
		}
		deg = max(deg, ch.S.S()-1)
	}
	if err := params.Validate(); err != nil {
		return err
	}
	for _, ch := range chains {
		vec.Copy(ch.S.Col(0), ch.W)
		if ch.U0 != nil {
			vec.Copy(ch.U.Col(0), ch.U0)
		} else {
			m.Apply(ch.U.Col(0), ch.W)
		}
	}

	colStepper, _ := a.(ColumnStepper)
	stepper, _ := a.(BasisStepper)
	pairMul, _ := a.(PairMultiplier)
	// finish turns S_{l+1} = A·U_l into the recurrence's column in place, then
	// applies the preconditioner to it.
	finish := func(c sparse.BasisCol, theta, mu, gamma float64) {
		vec.Threeterm(c.Next, c.Next, theta, c.Cur, mu, c.Prev, gamma)
		if c.UNext != nil {
			m.Apply(c.UNext, c.Next)
		}
	}
	for l := 0; l < deg; l++ {
		var cols [2]sparse.BasisCol
		k := 0
		for _, ch := range chains {
			if l+1 < ch.S.S() {
				cols[k] = ch.column(l)
				k++
			}
		}
		theta, gamma := params.Theta[l], params.Gamma[l]
		var mu float64
		if l > 0 {
			mu = params.Mu[l-1]
		}
		// Fast path: one fused pass for every new column (both backends, with a
		// diagonal preconditioner).
		if colStepper != nil && colStepper.FusedBasisSteps(cols, k, theta, mu, gamma) {
			continue
		}
		if k == 2 && pairMul != nil {
			pairMul.MulVecPair([2][]float64{cols[0].Next, cols[1].Next}, [2][]float64{cols[0].U, cols[1].U})
			finish(cols[0], theta, mu, gamma)
			finish(cols[1], theta, mu, gamma)
			continue
		}
		for _, c := range cols[:k] {
			if stepper != nil && stepper.FusedBasisStep(c.Next, c.U, c.Cur, c.Prev, theta, mu, gamma, c.UNext) {
				continue
			}
			a.MulVec(c.Next, c.U)
			finish(c, theta, mu, gamma)
		}
	}
	return nil
}
