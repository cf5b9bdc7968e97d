package main

import (
	"math"
	"math/rand"

	"spcg/internal/sparse"
)

// Accuracy every op is held to. The solvers are asked for tol; the benchmark
// recomputes the residual itself and allows a factor ten for the gap between
// a recursively updated residual and the true one.
const (
	solveTol     = 1e-8
	residualSlop = 10
	// agreeTol bounds how far an s-step solution may sit from the PCG
	// solution of the same system, relative to it.
	agreeTol = 1e-5
)

// randomRHS is the seeded right-hand side: uniform in [-1, 1), the same
// family spcgd's "random:<seed>" builds.
func randomRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}

// relResidual is ‖b − A·x‖₂ / ‖b‖₂, computed with the plain serial kernel so
// the check does not depend on the code under test's fast paths.
func relResidual(a *sparse.CSR, b, x, scratch []float64) float64 {
	if len(x) != len(b) {
		return math.Inf(1)
	}
	a.MulVec(scratch, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - scratch[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	if bb == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / bb)
}

// relDiff is ‖x − ref‖₂ / ‖ref‖₂.
func relDiff(x, ref []float64) float64 {
	if len(x) != len(ref) {
		return math.Inf(1)
	}
	var dd, nn float64
	for i := range ref {
		d := x[i] - ref[i]
		dd += d * d
		nn += ref[i] * ref[i]
	}
	if nn == 0 {
		return math.Sqrt(dd)
	}
	return math.Sqrt(dd / nn)
}

// solutionOK is the correctness rule of the library and spmd ops: converged,
// residual recomputed here within residualSlop·tol, and — when a PCG
// reference for the same system exists — agreement with it. A NaN anywhere
// fails the comparisons and so the op.
func solutionOK(a *sparse.CSR, b, x, ref, scratch []float64, converged bool) bool {
	if !converged || x == nil {
		return false
	}
	if !(relResidual(a, b, x, scratch) <= residualSlop*solveTol) {
		return false
	}
	if ref != nil && !(relDiff(x, ref) <= agreeTol) {
		return false
	}
	return true
}
