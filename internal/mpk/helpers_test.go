package mpk

import (
	"math"

	"spcg/internal/dense"
)

func matFromSlice(n int, data []float64) *dense.Mat {
	return dense.FromRowMajor(n, n, data)
}

// condSPD returns λmax/λmin of a small SPD matrix, +Inf if it is numerically
// indefinite.
func condSPD(m *dense.Mat) float64 {
	vals, err := dense.SymEigen(m)
	if err != nil || len(vals) == 0 || vals[0] <= 0 {
		return math.Inf(1)
	}
	return vals[len(vals)-1] / vals[0]
}
