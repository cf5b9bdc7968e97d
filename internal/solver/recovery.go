package solver

import "math"

// guard implements the solvers' fault detection and recovery: a
// residual-replacement-style divergence test (the recursive residual is
// compared against an explicitly recomputed true residual b−Ax) combined
// with periodic checkpoints of the solver state and rollback-and-restart
// when corruption is detected. Checkpoints are taken only immediately after
// a detection probe has passed, so a restore never resurrects corrupted
// state. A nil *guard (detection disabled) is valid and does nothing.
//
// The detection cadence is Options.DetectEvery iterations for PCG and outer
// iterations for the s-step methods — for the latter, the probe rides the
// block boundary where the solver already touches r and x, mirroring where
// residual replacement fires (paper §1's stabilization reference).
type guard struct {
	c     *ctx
	every int // detection cadence (iterations or outer iterations)
	// tolAbs is the absolute divergence threshold divergenceTol·‖b‖₂.
	tolAbs       float64
	maxRollbacks int

	// Checkpointed state: x and r always; p and rho only for PCG.
	ckX, ckR, ckP []float64
	ckRho         float64
	haveCk        bool
}

// divergenceTol is the detection threshold: ‖(b−Ax) − r‖₂ > divergenceTol·‖b‖₂ flags
// corruption (≈√ε above the drift of a healthy run).
const divergenceTol = 1e-8

// newGuard builds the detection/recovery state, or nil when detection is
// disabled. Charged: one fused dot for ‖b‖ (the threshold reference).
func newGuard(c *ctx) *guard {
	opts, b := c.opts, c.b
	if opts.DetectEvery <= 0 {
		return nil
	}
	maxRb := opts.MaxRollbacks
	if maxRb <= 0 {
		maxRb = 100
	}
	normB := math.Sqrt(c.dot(b, b))
	if normB == 0 {
		normB = 1 // b = 0: fall back to an absolute threshold
	}
	return &guard{
		c: c, every: opts.DetectEvery,
		tolAbs: divergenceTol * normB, maxRollbacks: maxRb,
		ckX: make([]float64, c.n), ckR: make([]float64, c.n),
	}
}

// due reports whether a detection probe runs after `step` completed steps.
func (g *guard) due(step int) bool {
	return g != nil && step%g.every == 0
}

// corrupted runs one detection probe: recompute the true residual and flag
// divergence from the recursive residual r beyond the threshold. Charged: one
// SpMV, two vector ops' worth of traffic, one reduction. The probe itself
// runs through the injected SpMV path — a corrupted probe triggers a
// (conservative) rollback like any other fault.
func (g *guard) corrupted(x, r []float64) bool {
	c := g.c
	var diff float64
	for i, v := range c.explicitResidual(x) {
		d := v - r[i]
		diff += d * d
	}
	c.tr.ReduceLocal(2*float64(c.n), 24*float64(c.n))
	diff = c.allreduce([]float64{diff})[0]
	if math.Sqrt(diff) > g.tolAbs {
		c.stats.DetectedFaults++
		return true
	}
	return false
}

// checkpoint snapshots (x, r) — and, when p is non-nil, the PCG coupling
// (p, rho) — after a passed probe. The snapshot is a
// local memory copy: it costs no communication, matching in-memory
// checkpointing (the cost model charges only the streaming traffic).
func (g *guard) checkpoint(x, r, p []float64, rho float64) {
	copy(g.ckX, x)
	copy(g.ckR, r)
	if p != nil {
		if g.ckP == nil {
			g.ckP = make([]float64, len(p))
		}
		copy(g.ckP, p)
		g.ckRho = rho
	}
	streams := 2
	if p != nil {
		streams = 3
	}
	g.c.tr.VectorOp(0, float64(8*streams*g.c.n))
	g.haveCk = true
}

// restore rolls the solver back to the last checkpoint, returning false when
// no checkpoint exists or the rollback budget is exhausted (the caller
// reports a breakdown). p/rho are restored only if they were checkpointed.
func (g *guard) restore(x, r, p []float64, rho *float64) bool {
	if g == nil || !g.haveCk || g.c.stats.Rollbacks >= g.maxRollbacks {
		return false
	}
	g.c.stats.Rollbacks++
	copy(x, g.ckX)
	copy(r, g.ckR)
	if p != nil && g.ckP != nil {
		copy(p, g.ckP)
		*rho = g.ckRho
	}
	streams := 2
	if p != nil {
		streams = 3
	}
	g.c.tr.VectorOp(0, float64(8*streams*g.c.n))
	return true
}
