package solver

import (
	"math"
	"reflect"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// events is the comparable part of a run: how far it got and what it spent.
type events struct {
	converged                                      bool
	iters, outer, mv, prec, allreduces, reduceVals int
	restarts                                       int
}

func eventsOf(st *Stats) events {
	return events{st.Converged, st.Iterations, st.OuterIterations, st.MVProducts,
		st.PrecApplies, st.Allreduces, st.AllreduceValues, st.Restarts}
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestSolversTakeAnyMatrix: every entry point is handed a sparse.Matrix and
// nothing else, so the same system stored as SELL-C-σ must give the solution
// bit for bit and the same event counts as the CSR run. No Spectrum is
// supplied: the s-step methods take their Ritz estimate through the storage
// they were given. The hub-graph rows are irregular, so the SELL has padding
// and a non-trivial internal row permutation.
func TestSolversTakeAnyMatrix(t *testing.T) {
	a := sparse.HubGraphLaplacian(600, 4, 50, 40, 0.5, 7)
	se := sparse.SELLFromCSR(a, 0, 0)
	if se.PaddingRatio() == 0 {
		t.Fatal("test matrix has no SELL padding: pick an irregular one")
	}
	n := a.Dim()
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := testProblem(a)
	opts := Options{S: 4, Basis: basis.Chebyshev, Tol: 1e-9, MaxIterations: 400}

	type solve func(sparse.Matrix) ([]float64, []events, error)
	cases := map[string]solve{}
	for name, run := range methods {
		cases[name] = func(mat sparse.Matrix) ([]float64, []events, error) {
			x, st, err := run(mat, m, b, opts)
			if err != nil {
				return nil, nil, err
			}
			return x, []events{eventsOf(st)}, nil
		}
	}
	cases["batchpcg"] = func(mat sparse.Matrix) ([]float64, []events, error) {
		bs := vec.NewBlock(n, 3)
		for j := range bs.Cols {
			for i := range b {
				bs.Col(j)[i] = b[i] * (1 + 0.1*float64(j)*math.Sin(float64(i)))
			}
		}
		xs, sts, err := BatchPCG(mat, m, bs, opts)
		if err != nil {
			return nil, nil, err
		}
		var x []float64
		var ev []events
		for j, st := range sts {
			x = append(x, xs.Col(j)...)
			ev = append(ev, eventsOf(st))
		}
		return x, ev, nil
	}

	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			xc, ec, err := run(a)
			if err != nil {
				t.Fatalf("csr: %v", err)
			}
			xs, es, err := run(se)
			if err != nil {
				t.Fatalf("sell: %v", err)
			}
			if !ec[0].converged {
				t.Fatalf("csr run did not converge: %+v", ec[0])
			}
			if !reflect.DeepEqual(ec, es) {
				t.Fatalf("events differ:\n csr  %+v\n sell %+v", ec, es)
			}
			if !sameBits(xc, xs) {
				t.Fatal("solutions differ in bits between csr and sell")
			}
		})
	}
}
