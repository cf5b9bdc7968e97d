package main

import (
	"fmt"
	"time"

	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/obs"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/spmd"
	"spcg/internal/suite"
)

// The paper's main setting (§5.2): block size 10, Chebyshev basis.
const (
	paperS      = 10
	paperMatrix = "Dubcova3" // n = 146 689 at scale 1: the paper-size stand-in
	ritzSteps   = 24         // PCG steps behind the basis spectrum, as the experiments use
)

// paperMethods is the paper's Table 2 comparison set, in schedule order. PCG
// runs first in every round: its solution is the reference the s-step
// solutions of the same system are compared with.
var paperMethods = []string{"pcg", "spcg", "capcg", "capcg3"}

// paperProblem is the cold set-up of solve_paper: generate the matrix, build
// the preconditioner, estimate the spectrum.
type paperProblem struct {
	a   *sparse.CSR
	m   *precond.Jacobi
	est *eig.Estimate
	// generate builds the matrix again, for the probe that times it.
	generate func() *sparse.CSR
}

func newPaperProblem(smoke bool) (*paperProblem, error) {
	p, ok := suite.ByName(paperMatrix)
	if !ok {
		return nil, fmt.Errorf("suite has no %s", paperMatrix)
	}
	scale := 1
	if smoke {
		scale = 64
	}
	generate := func() *sparse.CSR { return p.Build(scale) }
	a := generate()
	m, err := precond.NewJacobi(a)
	if err != nil {
		return nil, err
	}
	est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: ritzSteps})
	if err != nil {
		return nil, err
	}
	return &paperProblem{a: a, m: m, est: est, generate: generate}, nil
}

func (p *paperProblem) options() solver.Options {
	return solver.Options{S: paperS, Basis: basis.Chebyshev, Tol: solveTol, Spectrum: p.est}
}

// solveInst runs rounds of the four methods on one right-hand side per
// round. One caller, so no state here is shared between goroutines.
type solveInst struct {
	*paperProblem
	seed    int64
	fns     []solver.Method
	round   int
	b, ref  []float64
	scratch []float64
	phases  *obs.Tracer // reused per traced op
}

func setupSolvePaper(seed int64, smoke bool) (instance, error) {
	p, err := newPaperProblem(smoke)
	if err != nil {
		return nil, err
	}
	inst := &solveInst{paperProblem: p, seed: seed, round: -1, scratch: make([]float64, p.a.Dim())}
	for _, name := range paperMethods {
		fn, ok := solver.ByName(name)
		if !ok {
			return nil, fmt.Errorf("solver registry has no %q", name)
		}
		inst.fns = append(inst.fns, fn)
	}
	return inst, nil
}

func (s *solveInst) clients() int  { return 1 }
func (s *solveInst) blockLen() int { return len(paperMethods) }
func (s *solveInst) close()        {}

func (s *solveInst) do(i, _ int, tr *tracer) opRecord {
	round, k := i/len(paperMethods), i%len(paperMethods)
	if round != s.round {
		s.round, s.ref = round, nil
		s.b = randomRHS(s.a.Dim(), s.seed*1_000_003+int64(round))
	}
	name := paperMethods[k]
	opts := s.options()
	opSpan := tr.begin("op."+name, -1, i)
	if tr != nil {
		if s.phases == nil {
			s.phases = obs.New(1 << 16)
		}
		s.phases.Reset()
		opts.Trace = s.phases
	}
	call := tr.begin("solver."+name, opSpan, i)
	t0 := time.Now()
	x, st, err := s.fns[k](s.a, s.m, s.b, opts)
	dur := time.Since(t0)
	tr.end(call)
	addPhaseSpans(tr, s.phases, call, i, t0)

	check := tr.begin("check.residual", opSpan, i)
	ok := err == nil && st != nil && solutionOK(s.a, s.b, x, s.ref, s.scratch, st.Converged)
	tr.end(check)
	tr.end(opSpan)
	if k == 0 {
		s.ref = x
	}
	return opRecord{kind: name, dur: dur, ok: ok}
}

// addPhaseSpans copies the solver's own phase spans under the span of the
// call that produced them. obs.Tracer counts from its last Reset, which the
// caller did just before t0.
func addPhaseSpans(tr *tracer, phases *obs.Tracer, parent, op int, t0 time.Time) {
	if tr == nil || phases == nil {
		return
	}
	for _, sp := range phases.Spans() {
		if sp.Dur > 0 {
			tr.add("phase."+sp.Phase.String(), parent, op, t0.Add(time.Duration(sp.Start)), time.Duration(sp.Dur))
		}
	}
}

// spmdGrid is one problem of spmd_sync with the basis it needs.
type spmdGrid struct {
	name   string
	a      *sparse.CSR
	params *basis.Params
}

const spmdRanks = 2

func newSpmdGrids(smoke bool) ([]spmdGrid, error) {
	sizes := []int{64, 128}
	if smoke {
		sizes = []int{12, 16}
	}
	var grids []spmdGrid
	for _, nx := range sizes {
		a := sparse.Poisson2D(nx, nx)
		m, err := precond.NewJacobi(a)
		if err != nil {
			return nil, err
		}
		est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: ritzSteps})
		if err != nil {
			return nil, err
		}
		grids = append(grids, spmdGrid{
			name:   fmt.Sprintf("poisson2d:%d", nx),
			a:      a,
			params: basis.ChebyshevParams(paperS, est.LambdaMin, est.LambdaMax),
		})
	}
	return grids, nil
}

// spmdInst runs rounds of {PCG, CA-PCG} on each grid over real ranks. The
// s-step sPCG is not in the schedule: see the convergence audit in
// README.md.
type spmdInst struct {
	seed    int64
	grids   []spmdGrid
	round   int
	bs      [][]float64
	refs    [][]float64
	scratch [][]float64
}

func setupSpmdSync(seed int64, smoke bool) (instance, error) {
	grids, err := newSpmdGrids(smoke)
	if err != nil {
		return nil, err
	}
	inst := &spmdInst{seed: seed, grids: grids, round: -1}
	for _, g := range grids {
		inst.scratch = append(inst.scratch, make([]float64, g.a.Dim()))
	}
	inst.bs = make([][]float64, len(grids))
	inst.refs = make([][]float64, len(grids))
	return inst, nil
}

func (s *spmdInst) clients() int  { return 1 }
func (s *spmdInst) blockLen() int { return 2 * len(s.grids) }
func (s *spmdInst) close()        {}

func (s *spmdInst) do(i, _ int, tr *tracer) opRecord {
	round, k := i/s.blockLen(), i%s.blockLen()
	if round != s.round {
		s.round = round
		for g := range s.grids {
			s.bs[g] = randomRHS(s.grids[g].a.Dim(), s.seed*1_000_003+int64(round)*16+int64(g))
			s.refs[g] = nil
		}
	}
	g, sstep := k/2, k%2 == 1
	grid, b := s.grids[g], s.bs[g]
	fn, kind := "spmd.PCGJacobi", "pcg@"+grid.name
	if sstep {
		fn, kind = "spmd.CAPCGJacobi", "capcg@"+grid.name
	}
	opSpan := tr.begin("op."+kind, -1, i)
	call := tr.begin(fn, opSpan, i)
	t0 := time.Now()
	var res *spmd.Result
	var err error
	if sstep {
		res, err = spmd.CAPCGJacobi(grid.a, b, spmdRanks, paperS, grid.params, solveTol, 0)
	} else {
		res, err = spmd.PCGJacobi(grid.a, b, spmdRanks, solveTol, 0)
	}
	dur := time.Since(t0)
	tr.end(call)

	check := tr.begin("check.residual", opSpan, i)
	ok := err == nil && res != nil && solutionOK(grid.a, b, res.X, s.refs[g], s.scratch[g], res.Converged)
	tr.end(check)
	tr.end(opSpan)
	if !sstep && res != nil {
		s.refs[g] = res.X
	}
	return opRecord{kind: kind, dur: dur, ok: ok}
}
