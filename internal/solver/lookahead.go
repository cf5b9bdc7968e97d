package solver

import (
	"spcg/internal/obs"
	"spcg/internal/vec"
)

// pairedSpMV is an optional capability of a Backend: the two products
// dst_j = A·src_j of a 2-column block out of one pass over the matrix, each
// column bitwise what SpMV gives. The local backend offers it; a rank backend
// does not, and the context then runs the two products where they always ran.
type pairedSpMV interface {
	SpMVPair(dst, src *vec.Block)
}

// lookahead is the product an iteration of pcg or pcg3 opens with, computed
// one step early. When the explicit residual b − A·x⁽ᵏ⁺¹⁾ is formed (the
// true-residual criterion, a detection probe) the next iteration's operand —
// p⁽ᵏ⁺¹⁾, or pcg3's u⁽ᵏ⁺¹⁾ — is already final, so A·x and A·p share one sweep
// of the matrix instead of streaming it twice.
//
// A product is counted where the recurrence consumes it: the MVProducts
// count, the tracker's SpMV event, the injector's draw and the halo count of
// the early product all fire at the top of the next iteration (spmvNext), in
// the order a solve without the look-ahead fires them, and the product
// discarded at convergence, cancellation, breakdown or a rollback is not one.
// Iterates, counts, modeled time and fault sequences are therefore the same
// with and without it.
type lookahead struct {
	be       pairedSpMV // nil: the backend has no paired product
	dst, src []float64  // offered: the next iteration opens with dst = A·src
	ready    bool       // dst holds A·src, not yet charged

	// The 2-column views SpMVPair takes, over cols: no allocation per pass.
	cols    [4][]float64
	out, in vec.Block
}

// init wires the views; la must be at its final address.
func (la *lookahead) init(be Backend, n int) {
	la.be, _ = be.(pairedSpMV)
	la.out = vec.Block{N: n, Cols: la.cols[0:2]}
	la.in = vec.Block{N: n, Cols: la.cols[2:4]}
}

// drop forgets the offer and any product computed for it.
func (la *lookahead) drop() {
	la.dst, la.src, la.ready = nil, nil, false
}

// offerNext declares that the body's next iteration opens with dst = A·src
// and that src is final and dst free from here on. An explicit residual formed
// before that iteration computes the product in its own pass over the matrix.
func (c *ctx) offerNext(dst, src []float64) {
	c.ahead.dst, c.ahead.src, c.ahead.ready = dst, src, false
}

// spmvNext is spmv for the product an iteration opens with. If the look-ahead
// already holds it, only the charge remains.
func (c *ctx) spmvNext(dst, src []float64) {
	if c.ahead.ready {
		c.chargeSpMV(dst)
	} else {
		c.spmv(dst, src)
	}
	c.ahead.drop()
}

// spmvWithNext computes dst = A·src like spmv and, when a look-ahead is on
// offer and the backend can pair, the offered product in the same pass. Only
// dst = A·src is charged here.
func (c *ctx) spmvWithNext(dst, src []float64) {
	la := &c.ahead
	if la.be == nil || la.dst == nil || la.ready {
		c.spmv(dst, src)
		return
	}
	la.cols = [4][]float64{dst, la.dst, src, la.src}
	t0 := c.obs.Begin()
	la.be.SpMVPair(&la.out, &la.in)
	c.obs.End(obs.PhaseSpMV, t0)
	la.ready = true
	c.chargeSpMV(dst)
}
