package solver

import (
	"fmt"
	"math"
)

// guard is the solvers' fault detection and recovery, one for every method.
// At the boundary step a probe compares the recursive residual r with the
// explicit b − A·x; a probe that passes checkpoints (x, r), so a corrupted
// state is never checkpointed. A rollback — after a failed probe, or at any
// breakdown site — restores the checkpoint and hands it to the body's resume
// hook, which rebuilds the rest of its state from (x, r) as at the start of
// the run. A nil *guard (Options.DetectEvery = 0) does nothing.
type guard struct {
	every    int     // probe cadence, in convergence checks
	tolAbs   float64 // the divergence threshold divergenceTol·‖b‖₂
	ckX, ckR []float64
	resume   func(x, r []float64)
}

// divergenceTol is the detection threshold: ‖(b−Ax) − r‖₂ > divergenceTol·‖b‖₂ flags
// corruption (≈√ε above the drift of a healthy run).
const divergenceTol = 1e-8

// maxRollbacks caps checkpoint restorations per run; persistent corruption
// exhausts it and ends the run with a rollback-budget breakdown.
const maxRollbacks = 100

// arm turns detection on for a body; bodies call it when
// Options.DetectEvery > 0, and only then build the hook (a closure costs the
// healthy path an allocation). It checkpoints the opening (x, r), so a
// rollback is possible from the first step on, and registers resume, which
// restarts the body from the (x, r) it is handed. Charged: one dot for ‖b‖
// (the threshold's reference).
func (c *ctx) arm(x, r []float64, resume func(x, r []float64)) {
	normB := math.Sqrt(c.dot(c.b, c.b))
	if normB == 0 {
		normB = 1 // b = 0: fall back to an absolute threshold
	}
	c.guard = &guard{
		every: c.opts.DetectEvery, tolAbs: divergenceTol * normB,
		ckX: make([]float64, c.n), ckR: make([]float64, c.n), resume: resume,
	}
	c.checkpoint(x, r)
}

// corrupted is the detection probe: it flags divergence of the recursive
// residual r from the explicit residual res beyond the threshold. Charged: two
// vector streams and one reduction. res comes through the injected SpMV path,
// so a corrupted probe triggers a (conservative) rollback like any other
// fault.
func (c *ctx) corrupted(res, r []float64) bool {
	var diff float64
	for i, v := range res {
		d := v - r[i]
		diff += d * d
	}
	c.tr.ReduceLocal(2*float64(c.n), 24*float64(c.n))
	c.red[0] = diff
	if math.Sqrt(c.allreduce(c.red[:1])[0]) <= c.guard.tolAbs {
		return false
	}
	c.stats.DetectedFaults++
	return true
}

// checkpoint snapshots (x, r) after a passed probe. The snapshot is a local
// memory copy: it costs no communication, matching in-memory checkpointing
// (the cost model charges only the streaming traffic).
func (c *ctx) checkpoint(x, r []float64) {
	copy(c.guard.ckX, x)
	copy(c.guard.ckR, r)
	c.tr.VectorOp(0, 16*float64(c.n))
}

// recovered is the one failure path of the loops. With detection on and
// budget left it rolls back — restore the checkpoint, then resume the body
// from it — and reports true (the loop continues); otherwise it records the
// breakdown and reports false (the loop ends). A corrupted iterate can
// masquerade as a breakdown, so every site tries the rollback before giving
// up. Without detection it is exactly breakdown.
func (c *ctx) recovered(site, format string, args ...any) bool {
	g := c.guard
	if g == nil {
		c.breakdown(site, format, args...)
		return false
	}
	if c.stats.Rollbacks == maxRollbacks {
		c.breakdown(siteRollback, "rollback budget (%d) exhausted — persistent corruption; last at %s: %s",
			maxRollbacks, site, fmt.Sprintf(format, args...))
		return false
	}
	c.stats.Rollbacks++
	c.ahead.drop() // computed from an operand the rollback replaces
	c.tr.VectorOp(0, 16*float64(c.n))
	g.resume(g.ckX, g.ckR)
	return true
}
