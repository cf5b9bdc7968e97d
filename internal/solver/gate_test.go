package solver

import (
	"fmt"
	"math"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// TestTrueGateMatchesAlwaysOpen: the true-residual criterion forms b − A·x
// only where it can pass, so it stops where a run that forms it at every
// check stops. For every registry method, on two generators and both bases,
// a gated run is compared with the same run at DetectEvery: 1 and no
// injector, whose probe forms b − A·x at every check and which the criterion
// then reads: the same iterations, the same verdict, the same x bits — for
// fewer products.
func TestTrueGateMatchesAlwaysOpen(t *testing.T) {
	for _, spec := range []string{"poisson2d:32", "varcoeff2d:24:3"} {
		build, n, _, err := sparse.ParseMatrixSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		a := build()
		m, err := precond.NewJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i)*0.37) + 0.25
		}
		for _, bt := range []basis.Type{basis.Monomial, basis.Chebyshev} {
			for name, method := range methods {
				t.Run(fmt.Sprintf("%s/%v/%s", spec, bt, name), func(t *testing.T) {
					opts := Options{S: 4, Basis: bt, Tol: 1e-9, MaxIterations: 2000}
					x, st, err := method(a, m, b, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.DetectEvery = 1
					xRef, ref, err := method(a, m, b, opts)
					if err != nil {
						t.Fatal(err)
					}
					if ref.Rollbacks != 0 {
						t.Fatalf("the always-open reference rolled back %d times", ref.Rollbacks)
					}
					if st.Iterations != ref.Iterations || st.Converged != ref.Converged || !sameBits(x, xRef) {
						t.Fatalf("gated: %d iterations, converged %v; always open: %d, %v; x bits equal %v",
							st.Iterations, st.Converged, ref.Iterations, ref.Converged, sameBits(x, xRef))
					}
					if !st.Converged || st.TrueRelResidual > opts.Tol || math.Float64bits(st.FinalRelative) != math.Float64bits(ref.FinalRelative) {
						t.Errorf("converged %v with true relative residual %.3g, FinalRelative %v (always open %v)",
							st.Converged, st.TrueRelResidual, st.FinalRelative, ref.FinalRelative)
					}
					if st.MVProducts >= ref.MVProducts {
						t.Errorf("%d products gated, %d always open", st.MVProducts, ref.MVProducts)
					}
				})
			}
		}
	}
}

// TestTrueGateStandInNeverConverges: on a configuration whose recursive
// residual reaches tol while b − A·x stays far above it (monomial sPCG at
// s = 8, where the basis loses the recursive-vs-true gap that Carson's bound
// allows), the recursive criterion reports convergence on a wrong x. Under
// the true-residual criterion the same solve either ends with its true
// residual within tol or does not converge: the gate is open wherever the
// recursive value could pass, and a stand-in never does.
func TestTrueGateStandInNeverConverges(t *testing.T) {
	a := sparse.Poisson2D(32, 32)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = math.Sin(float64(i)*0.37) + 0.25
	}
	for _, name := range []string{"spcg", "spcgmon"} {
		opts := Options{S: 8, Basis: basis.Monomial, Tol: 1e-9, MaxIterations: 3000, Criterion: RecursiveResidual2Norm}
		_, rec, err := methods[name](a, m, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Converged || rec.TrueRelResidual <= trueGate*opts.Tol {
			t.Fatalf("%s: recursive criterion converged %v at true relative residual %.3g: not a configuration whose recursive value reaches tol first",
				name, rec.Converged, rec.TrueRelResidual)
		}
		opts.Criterion = TrueResidual2Norm
		_, st, err := methods[name](a, m, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Converged && st.TrueRelResidual > opts.Tol {
			t.Errorf("%s: converged with true relative residual %.3g > tol", name, st.TrueRelResidual)
		}
		if math.Abs(st.FinalRelative-st.TrueRelResidual) > 1e-6*st.TrueRelResidual {
			t.Errorf("%s: FinalRelative %.6g, true relative residual %.6g", name, st.FinalRelative, st.TrueRelResidual)
		}
	}
}
