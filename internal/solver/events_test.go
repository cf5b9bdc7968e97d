package solver

import "math"

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
