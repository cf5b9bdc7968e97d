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
	"spcg/internal/obs"
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

// obsProvider is an optional capability of Operator: an instrumented wrapper
// can expose its phase tracer so the kernel attributes its recurrence work
// to the basis phase. A nil tracer (or an operator without the capability)
// disables tracing at the cost of one branch per column.
type obsProvider interface {
	ObsTracer() *obs.Tracer
}

// workspacer is an optional capability of Operator: a length-n vector Compute
// may hold A·u in, instead of allocating one per call. The vector is the
// kernel's until Compute returns.
type workspacer interface {
	Workspace() []float64
}

// TracerOf returns the operator's phase tracer when it offers one, else nil.
func TracerOf(a Operator) *obs.Tracer {
	if p, ok := a.(obsProvider); ok {
		return p.ObsTracer()
	}
	return nil
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
	n := a.Dim()
	sCols := s.S()
	deg := sCols - 1
	uCols := u.S()
	if deg < 1 {
		return fmt.Errorf("mpk: S needs at least 2 columns, got %d", sCols)
	}
	if uCols != deg && uCols != sCols {
		return fmt.Errorf("mpk: U must have %d or %d columns, got %d", deg, sCols, uCols)
	}
	if params.Degree() < deg {
		return fmt.Errorf("mpk: basis degree %d < required %d", params.Degree(), deg)
	}
	if err := params.Validate(); err != nil {
		return err
	}
	if s.N != n || u.N != n || len(w) != n {
		return fmt.Errorf("mpk: dimension mismatch (n=%d, S rows %d, U rows %d, len(w)=%d)", n, s.N, u.N, len(w))
	}

	vec.Copy(s.Col(0), w)
	if u0 != nil {
		vec.Copy(u.Col(0), u0)
	} else {
		m.Apply(u.Col(0), w)
	}

	stepper, _ := a.(BasisStepper)
	tracer := TracerOf(a) // nil-safe: basis-phase spans for the recurrence
	var z []float64       // A·u on the unfused path
	for l := 0; l < deg; l++ {
		var prev []float64
		var mu float64
		if l > 0 {
			prev = s.Col(l - 1)
			mu = params.Mu[l-1]
		}
		var uNext []float64
		if l+1 < uCols {
			uNext = u.Col(l + 1)
		}
		// Fast path: one fused pass per new column when the operator offers it
		// (the shared-memory solvers' SpMV + diagonal-preconditioner fusion).
		if stepper != nil && params.Gamma[l] != 0 &&
			stepper.FusedBasisStep(s.Col(l+1), u.Col(l), s.Col(l), prev, params.Theta[l], mu, params.Gamma[l], uNext) {
			continue
		}
		// z = A·M⁻¹·S_l = A·U_l.
		if z == nil {
			if ws, ok := a.(workspacer); ok {
				z = ws.Workspace()
			} else {
				z = make([]float64, n)
			}
		}
		a.MulVec(z, u.Col(l))
		t0 := tracer.Begin()
		vec.Threeterm(s.Col(l+1), z, params.Theta[l], s.Col(l), mu, prev, params.Gamma[l])
		tracer.End(obs.PhaseBasis, t0)
		if uNext != nil {
			m.Apply(uNext, s.Col(l+1))
		}
	}
	return nil
}
