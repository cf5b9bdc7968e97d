package solver

import (
	"fmt"
	"math"

	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// BatchPCG solves the k independent systems A·x_j = b_j (the columns of bs)
// with k preconditioned-CG recurrences advanced in lockstep. Each column
// keeps its own scalars (α, β, ρ) and convergence state — the iterates are
// bit-identical to k separate PCG runs — but the per-iteration SpMV is one
// block product over all still-active columns (sparse.MulBlockPar /
// vec.Block), so A is streamed once per four systems instead of once per
// system. This is the solve service's request-coalescing kernel: concurrent
// requests against the same matrix within the batching window become columns
// of one BatchPCG call.
//
// Columns freeze individually as they converge or break down; the loop runs
// until every column is frozen, the iteration cap is reached, or
// Options.Cancel fires (ErrCancelled, partial per-column Stats). Convergence
// uses the recursive-residual criteria; TrueResidual2Norm is mapped to
// RecursiveResidual2Norm (the explicit per-column check would cost an extra
// block SpMV per iteration), and Stats.TrueRelResidual is still reported
// from the final iterates. Batch runs serve wall-clock traffic and are not
// charged to the distributed cost model (Options.Tracker is ignored).
func BatchPCG(a sparse.Matrix, m precond.Interface, bs *vec.Block, opts Options) (*vec.Block, []*Stats, error) {
	opts = opts.withDefaults()
	lb, err := newLocal(a, m)
	if err != nil {
		return nil, nil, err
	}
	n, m := a.Dim(), lb.m
	if bs == nil || bs.S() == 0 {
		return nil, nil, fmt.Errorf("%w: empty right-hand-side block", ErrDimension)
	}
	if bs.N != n {
		return nil, nil, fmt.Errorf("%w: rhs rows=%d, n=%d", ErrDimension, bs.N, n)
	}
	k := bs.S()

	x := vec.NewBlock(n, k)
	r := vec.NewBlock(n, k)
	u := vec.NewBlock(n, k)
	p := vec.NewBlock(n, k)
	s := vec.NewBlock(n, k)

	stats := make([]*Stats, k)
	rho := make([]float64, k)
	initial := make([]float64, k)
	active := make([]bool, k)

	mnorm := opts.Criterion == RecursiveResidualMNorm
	for j := 0; j < k; j++ {
		stats[j] = &Stats{BestRelative: math.Inf(1)}
		// x⁰ = 0 ⇒ r⁰ = b_j directly; batched requests carry no X0.
		vec.Copy(r.Col(j), bs.Col(j))
		m.Apply(u.Col(j), r.Col(j))
		stats[j].PrecApplies++
		vec.Copy(p.Col(j), u.Col(j))
		rho[j] = vec.Dot(r.Col(j), u.Col(j))
		if !finite(rho[j]) || rho[j] < 0 {
			stats[j].Breakdown = fmt.Errorf("%w: initial rᵀM⁻¹r = %v (column %d)", ErrBreakdown, rho[j], j)
			continue
		}
		if mnorm {
			initial[j] = math.Sqrt(rho[j])
		} else {
			initial[j] = vec.Norm2(r.Col(j))
		}
		if initial[j] == 0 {
			stats[j].Converged = true // zero rhs: x = 0 solves it
			continue
		}
		active[j] = true
	}

	cancelled := false
	remaining := k
	for j := range active {
		if !active[j] {
			remaining--
		}
	}
	// Column views over the active subset, reused each iteration so the
	// multi-vector SpMV sees one contiguous block.
	pAct := &vec.Block{N: n, Cols: make([][]float64, 0, k)}
	sAct := &vec.Block{N: n, Cols: make([][]float64, 0, k)}
	for i := 0; i < opts.MaxIterations && remaining > 0; i++ {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				cancelled = true
			default:
			}
			if cancelled {
				break
			}
		}
		// Block SpMV over the active columns only: frozen columns cost
		// nothing, and the active ones share one pass over the matrix per
		// group of four.
		pAct.Cols = pAct.Cols[:0]
		sAct.Cols = sAct.Cols[:0]
		for j := 0; j < k; j++ {
			if active[j] {
				pAct.Cols = append(pAct.Cols, p.Col(j))
				sAct.Cols = append(sAct.Cols, s.Col(j))
				stats[j].MVProducts++
			}
		}
		a.MulBlockPar(sAct, pAct)
		// The block heartbeat reports the worst (largest) relative value among
		// the columns advanced this iteration: the watchdog only declares the
		// whole batch stagnant when even the slowest member stops improving.
		worst := 0.0
		advanced := false
		for j := 0; j < k; j++ {
			if !active[j] {
				continue
			}
			st := stats[j]
			den := vec.Dot(p.Col(j), s.Col(j))
			if !finite(den) || den <= 0 {
				st.Breakdown = fmt.Errorf("%w: pᵀAp = %v at iteration %d (column %d)", ErrBreakdown, den, i, j)
				active[j] = false
				remaining--
				continue
			}
			alpha := rho[j] / den
			vec.Axpy(alpha, p.Col(j), x.Col(j))
			vec.Axpy(-alpha, s.Col(j), r.Col(j))
			m.Apply(u.Col(j), r.Col(j))
			st.PrecApplies++
			rhoNew := vec.Dot(r.Col(j), u.Col(j))
			if !finite(rhoNew) || rhoNew < 0 {
				st.Breakdown = fmt.Errorf("%w: rᵀM⁻¹r = %v at iteration %d (column %d)", ErrBreakdown, rhoNew, i, j)
				active[j] = false
				remaining--
				continue
			}
			beta := rhoNew / rho[j]
			rho[j] = rhoNew
			vec.XpayInto(p.Col(j), u.Col(j), beta, p.Col(j))

			st.Iterations = i + 1
			st.OuterIterations = i + 1
			var val float64
			if mnorm {
				val = math.Sqrt(rhoNew)
			} else {
				val = vec.Norm2(r.Col(j))
			}
			st.FinalRelative = val / initial[j]
			if st.FinalRelative < st.BestRelative {
				st.BestRelative = st.FinalRelative
			}
			st.Heartbeats++
			advanced = true
			if st.FinalRelative > worst {
				worst = st.FinalRelative
			}
			if st.FinalRelative <= opts.Tol {
				st.Converged = true
				active[j] = false
				remaining--
			}
		}
		if advanced && opts.OnProgress != nil {
			opts.OnProgress(i+1, worst)
		}
	}

	tmp := make([]float64, n)
	for j := 0; j < k; j++ {
		stats[j].TrueRelResidual = trueRelResidual(lb, bs.Col(j), x.Col(j), nil, tmp)
		if !stats[j].Converged && stats[j].TrueRelResidual <= opts.Tol {
			stats[j].Converged = true
		}
	}
	if cancelled {
		return x, stats, ErrCancelled
	}
	return x, stats, nil
}
