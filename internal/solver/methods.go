package solver

import (
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// Method is the shared signature of every top-level solver in this package:
// matrix, preconditioner, right-hand side, options → solution, stats, error.
type Method = func(sparse.Matrix, precond.Interface, []float64, Options) ([]float64, *Stats, error)

// methods is the canonical name → solver registry. The serving daemon, the
// autotuner and the experiment harness all resolve method strings here so a
// name means the same solver everywhere.
var methods = map[string]Method{
	"pcg":      PCG,
	"pcg3":     PCG3,
	"spcg":     SPCG,
	"spcgmon":  SPCGMon,
	"capcg":    CAPCG,
	"capcg3":   CAPCG3,
	"adaptive": SPCGAdaptive,
}

// needsSpectrum lists the methods whose non-monomial bases want λ estimates
// of M⁻¹A (the cacheable Lanczos setup step).
var needsSpectrum = map[string]bool{
	"spcg": true, "capcg": true, "capcg3": true, "adaptive": true,
}

// ByName resolves one method name from the registry, keyed by the lowercase
// wire names served by spcgd ("pcg", "spcg", "capcg3", ...).
func ByName(name string) (Method, bool) {
	fn, ok := methods[name]
	return fn, ok
}

// NeedsSpectrum reports whether the named method benefits from a precomputed
// spectral estimate of the preconditioned operator when running a
// non-monomial basis.
func NeedsSpectrum(name string) bool { return needsSpectrum[name] }
