package precond

import (
	"fmt"
	"sync"

	"spcg/internal/sparse"
)

// SSOR is the symmetric successive over-relaxation preconditioner
// M = (2−ω)⁻¹ · (D/ω + L) · (D/ω)⁻¹ · (D/ω + U), which is SPD for SPD A and
// 0 < ω < 2. Applied via one forward and one backward triangular sweep.
// The sweeps are inherently sequential across rows; in a distributed setting
// this corresponds to the processor-local (block) SSOR commonly used with
// CG, so HaloExchanges is 0.
type SSOR struct {
	a       *sparse.CSR
	omega   float64
	invDiag []float64
	scratch sync.Pool // per-caller sweep vectors: Apply is concurrency-safe
}

// NewSSOR builds an SSOR preconditioner with relaxation factor omega.
func NewSSOR(a *sparse.CSR, omega float64) (*SSOR, error) {
	if !(omega > 0 && omega < 2) {
		return nil, fmt.Errorf("precond: SSOR needs 0 < ω < 2, got %v", omega)
	}
	inv, err := invertDiag(a)
	if err != nil {
		return nil, err
	}
	p := &SSOR{a: a, omega: omega, invDiag: inv}
	n := a.Dim()
	p.scratch.New = func() any { return make([]float64, n) }
	return p, nil
}

// Apply computes dst = M⁻¹·src by forward solve, diagonal scale, backward
// solve.
func (p *SSOR) Apply(dst, src []float64) {
	n := p.a.Dim()
	if len(dst) != n || len(src) != n {
		panic("precond: SSOR Apply dim mismatch")
	}
	w := p.omega
	y := p.scratch.Get().([]float64)
	defer p.scratch.Put(y)
	// Forward: (D/ω + L)·y = src.
	for i := 0; i < n; i++ {
		s := src[i]
		for k := p.a.RowPtr[i]; k < p.a.RowPtr[i+1]; k++ {
			j := p.a.ColIdx[k]
			if j >= i {
				break // columns sorted; remaining are diagonal/upper
			}
			s -= p.a.Val[k] * y[j]
		}
		y[i] = s * w * p.invDiag[i]
	}
	// Scale: y ← (D/ω)·y · (2−ω) — combined into the backward sweep input.
	scale := (2 - w) / w
	for i := 0; i < n; i++ {
		y[i] = y[i] * scale / p.invDiag[i]
	}
	// Backward: (D/ω + U)·dst = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := p.a.RowPtr[i+1] - 1; k >= p.a.RowPtr[i]; k-- {
			j := p.a.ColIdx[k]
			if j <= i {
				break
			}
			s -= p.a.Val[k] * dst[j]
		}
		dst[i] = s * w * p.invDiag[i]
	}
}

// Dim returns n.
func (p *SSOR) Dim() int { return p.a.Dim() }

// Name returns "ssor(ω)".
func (p *SSOR) Name() string { return fmt.Sprintf("ssor(%.2g)", p.omega) }

// Flops counts both triangular sweeps plus scaling.
func (p *SSOR) Flops() float64 { return 2*float64(p.a.NNZ()) + 4*float64(p.a.Dim()) }

// HaloExchanges returns 0 (local sweeps).
func (p *SSOR) HaloExchanges() int { return 0 }
