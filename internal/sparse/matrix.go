package sparse

import "spcg/internal/vec"

// Matrix is the operator contract the solvers' hot path needs: the
// pool-parallel SpMV, the batched block SpMV, and the fused basis-step
// kernel. *CSR and *SELL both implement it, so a solve can run
// on whichever storage the format selector picked without the solver
// knowing. All implementations must be safe for concurrent kernel calls on
// an immutable matrix and bitwise deterministic across worker counts.
type Matrix interface {
	Dim() int
	MulVecPar(dst, x []float64)
	MulBlockPar(dst, x *vec.Block)
	FusedBasisSteps(cols []BasisCol, theta, mu, gamma float64, dinv []float64)
}

var (
	_ Matrix = (*CSR)(nil)
	_ Matrix = (*SELL)(nil)
)
