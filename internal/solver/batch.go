package solver

import (
	"fmt"

	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// BatchPCG solves the k independent systems A·x_j = b_j (the columns of bs)
// with k runs of PCG's own body advanced in lockstep, each column on its own
// context over one shared local backend. Each column's iterate and Stats are
// therefore bit-identical to a separate PCG run on it, at any worker count;
// only the product that opens each iteration is shared: one block product
// over the still-active columns (sparse.MulBlockPar, each column bitwise
// MulVecPar's), so A is streamed once per four systems instead of once per
// system. The solve service no longer calls it (every request is one solve);
// the benchmark's multi-RHS probe does, until ROADMAP item 3 drops it.
//
// Columns freeze individually as they converge or break down; the loop runs
// until every column is frozen, the iteration cap is reached, or
// Options.Cancel fires (ErrCancelled, partial per-column Stats), which is
// polled once per iteration. Every active column joins each block pass;
// under the true-residual criterion a column whose gate is open forms
// b − A·x on its own context, and a column that stagnates freezes with its
// own stagnation breakdown. Batch runs serve wall-clock traffic:
// Options.Tracker, Injector and Trace are ignored.
func BatchPCG(a *sparse.CSR, m precond.Interface, bs *vec.Block, opts Options) (*vec.Block, []*Stats, error) {
	opts = opts.withDefaults()
	lb, err := newLocal(a, m)
	if err != nil {
		return nil, nil, err
	}
	n := a.Dim()
	if bs == nil || bs.S() == 0 {
		return nil, nil, fmt.Errorf("%w: empty right-hand-side block", ErrDimension)
	}
	if bs.N != n {
		return nil, nil, fmt.Errorf("%w: rhs rows=%d, n=%d", ErrDimension, bs.N, n)
	}
	opts.Trace = nil

	k := bs.S()
	cs := make([]*ctx, k)
	runs := make([]*pcgRun, k) // nil once a column is frozen
	x := &vec.Block{N: n, Cols: make([][]float64, k)}
	for j := range cs {
		c, err := newCtx(lb, bs.Col(j), opts)
		if err != nil {
			return nil, nil, err
		}
		cs[j], runs[j], x.Cols[j] = c, startPCG(c), c.x
	}

	// Column views over the active subset, reused each iteration.
	pAct := &vec.Block{N: n, Cols: make([][]float64, 0, k)}
	sAct := &vec.Block{N: n, Cols: make([][]float64, 0, k)}
	for i := 0; i < opts.MaxIterations; i++ {
		pAct.Cols, sAct.Cols = pAct.Cols[:0], sAct.Cols[:0]
		for _, q := range runs {
			if q != nil {
				pAct.Cols = append(pAct.Cols, q.p)
				sAct.Cols = append(sAct.Cols, q.s)
			}
		}
		if len(pAct.Cols) == 0 {
			break
		}
		if cs[0].cancelled() { // every column holds the same Options.Cancel
			err = ErrCancelled
			break
		}
		a.MulBlockPar(sAct, pAct)
		for j, q := range runs {
			if q == nil {
				continue
			}
			q.c.chargeSpMV(q.s)
			if q.step(i) {
				runs[j] = nil
			}
		}
	}

	stats := make([]*Stats, k)
	for j, c := range cs {
		c.finish(c.x)
		stats[j] = c.stats
	}
	return x, stats, err
}
