package main

import (
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spcg/internal/basis"
	"spcg/internal/dense"
	"spcg/internal/dist"
	"spcg/internal/eig"
	"spcg/internal/mpk"
	"spcg/internal/obs"
	"spcg/internal/perfmodel"
	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/service"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/spmd"
	"spcg/internal/tune"
	"spcg/internal/vec"
)

// prober measures single layers from outside, by timing calls into their
// public functions on fixed inputs. It is the same on every workload, so a
// layer number means the same thing whichever traced run reported it.
type prober struct {
	tr    *tracer
	root  int
	smoke bool
	seed  int64
	out   map[string]float64
	// samples is the number of timings behind each value in out.
	samples map[string]int
	reps    int // of the latest timeMS
	// failed lists probes whose result was wrong; any entry makes the run
	// incorrect.
	failed []string
	// triadBytes and llcBytes are printed beside bench.triad_gbs.
	triadBytes, llcBytes int64
}

// timeMS calls fn reps times, each inside a span named for the function
// called, and returns the median time in milliseconds.
func (p *prober) timeMS(name string, reps int, fn func()) float64 {
	if p.smoke && reps > 3 {
		reps = 3
	}
	p.reps = reps
	ms := make([]float64, reps)
	for r := range ms {
		id := p.tr.begin(name, p.root, -1)
		t0 := time.Now()
		fn()
		ms[r] = float64(time.Since(t0)) / float64(time.Millisecond)
		p.tr.end(id)
	}
	return median(ms)
}

// set records a metric; its sample count is that of the latest timing.
func (p *prober) set(name string, v float64) {
	p.out[name] = v
	p.samples[name] = p.reps
}

func (p *prober) fail(format string, args ...any) {
	p.failed = append(p.failed, fmt.Sprintf(format, args...))
}

// gbs turns computed bytes and measured milliseconds into GB/s.
func gbs(bytes, ms float64) float64 { return ratio(bytes/1e9, ms/1e3) }

func randomBlock(n, s int, seed int64) *vec.Block {
	b := vec.NewBlock(n, s)
	for j := 0; j < s; j++ {
		copy(b.Col(j), randomRHS(n, seed+int64(j)))
	}
	return b
}

// triad is the machine's sustainable bandwidth: a[i] = b[i] + q·c[i] over
// arrays whose total footprint is at least four times the last-level cache,
// one chunk per core. Bytes are computed: 24 per element.
func (p *prober) triad(env envStamp) {
	p.llcBytes = env.LLCBytes
	footprint := 4 * env.LLCBytes
	if footprint < 64<<20 {
		footprint = 64 << 20
	}
	if footprint > 2<<30 {
		footprint = 2 << 30 // keep the probe inside a small sandbox's memory
	}
	if p.smoke {
		footprint = 6 << 20
	}
	n := int(footprint / 24)
	p.triadBytes = int64(n) * 24
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i&15), 0.5
	}
	ms := p.timeMS("bench.triad", 5, func() {
		var wg sync.WaitGroup
		chunk := (n + benchProcs - 1) / benchProcs
		for w := 0; w < benchProcs; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
	})
	p.set("bench.triad_gbs", gbs(24*float64(n), ms))
}

// fusedOp is the operator the solvers hand to mpk.Compute: plain SpMV plus
// the fused SpMV + recurrence + Jacobi step, both straight from the matrix.
type fusedOp struct {
	a    *sparse.CSR
	dinv []float64
}

func (o fusedOp) Dim() int                  { return o.a.Dim() }
func (o fusedOp) MulVec(dst, src []float64) { o.a.MulVecPar(dst, src) }
func (o fusedOp) FusedBasisStep(sNext, u, sCur, sPrev []float64, theta, mu, gamma float64, uNext []float64) bool {
	o.a.FusedBasisStepPar(sNext, u, sCur, sPrev, theta, mu, gamma, o.dinv, uNext)
	return true
}

// kernels times vec, sparse, mpk, dense, eig and precond at solve_paper's n
// and s.
func (p *prober) kernels(prob *paperProblem) {
	a, s := prob.a, paperS
	n, nnz := float64(a.Dim()), float64(a.NNZ())
	x, y := randomRHS(a.Dim(), p.seed+1), randomRHS(a.Dim(), p.seed+2)
	dst := make([]float64, a.Dim())
	X, Y := randomBlock(a.Dim(), s, p.seed+10), randomBlock(a.Dim(), s, p.seed+30)
	D := vec.NewBlock(a.Dim(), s)
	coef := randomRHS(s*s, p.seed+3)

	var sink float64
	const dispatches = 1000
	p.set("pool.dispatch_us", 1e3/dispatches*p.timeMS("pool.Dispatch×1000", 20, func() {
		for i := 0; i < dispatches; i++ {
			pool.Default().Dispatch(benchProcs, func(int) {})
		}
	}))

	dotMS := p.timeMS("vec.Dot", 200, func() { sink += vec.Dot(x, y) })
	p.set("vec.dot_gbs", gbs(16*n, dotMS))
	p.set("vec.axpy_gbs", gbs(24*n, p.timeMS("vec.Axpy", 200, func() { vec.Axpy(1e-9, x, dst) })))
	p.set("vec.triad_frac", ratio(p.out["vec.dot_gbs"], p.out["bench.triad_gbs"]))
	p.set("vec.gram_fused_ms", p.timeMS("vec.GramFused", 20, func() { sink += vec.GramFused(X, Y)[0] }))
	p.set("vec.gram_naive_ms", p.timeMS("vec.Gram", 10, func() { sink += vec.Gram(X, Y)[0] }))
	// 2·s² flops per row over 2·s operands of 8 bytes, each streamed once.
	p.set("vec.gram_flop_per_byte", float64(s)/8)
	p.set("vec.gramvec_fused_ms", p.timeMS("vec.GramVecFused", 20, func() { sink += vec.GramVecFused(X, x)[0] }))
	p.set("vec.addmul_fused_ms", p.timeMS("vec.AddMulFused", 20, func() { vec.AddMulFused(D, Y, X, coef) }))
	p.set("vec.combine_fused_gbs", gbs(8*n*float64(s+1), p.timeMS("vec.CombineFused", 50, func() { X.CombineFused(dst, coef[:s]) })))

	// CSR SpMV streams values and int column indices (16·nnz), row pointers,
	// and reads x and writes dst once.
	spmvBytes := 16*nnz + 8*(n+1) + 16*n
	csrMS := p.timeMS("sparse.CSR.MulVecPar", 100, func() { a.MulVecPar(dst, x) })
	p.set("sparse.spmv_csr_ms", csrMS)
	p.set("sparse.spmv_csr_gbs", gbs(spmvBytes, csrMS))
	p.set("sparse.spmv_triad_frac", ratio(p.out["sparse.spmv_csr_gbs"], p.out["bench.triad_gbs"]))
	var sell *sparse.SELL
	p.set("sparse.sell_convert_ms", p.timeMS("sparse.SELLFromCSR", 3, func() { sell = sparse.SELLFromCSR(a, 0, 0) }))
	p.set("sparse.spmv_sell_ms", p.timeMS("sparse.SELL.MulVecPar", 100, func() { sell.MulVecPar(dst, x) }))
	p.set("sparse.mulblock_ms", p.timeMS("sparse.CSR.MulBlockPar", 10, func() { a.MulBlockPar(D, X) }))
	dinv := prob.m.InvDiag()
	p.set("sparse.fused_basis_step_ms", p.timeMS("sparse.CSR.FusedBasisStepPar", 50, func() {
		a.FusedBasisStepPar(D.Col(0), x, X.Col(0), X.Col(1), 1.0, 0.25, 0.5, dinv, D.Col(1))
	}))
	p.set("sparse.choose_format_ms", p.timeMS("sparse.ChooseFormat", 3, func() { sparse.ChooseFormat(a) }))
	var fp uint64
	p.set("sparse.fingerprint_ms", p.timeMS("sparse.CSR.Fingerprint", 5, func() { fp ^= a.Fingerprint() }))
	p.set("sparse.generate_ms", p.timeMS("suite.Problem.Build", 3, func() { sink += float64(prob.generate().NNZ()) }))

	params := basis.ChebyshevParams(s, prob.est.LambdaMin, prob.est.LambdaMax)
	S, U := vec.NewBlock(a.Dim(), s+1), vec.NewBlock(a.Dim(), s)
	mpkMS := p.timeMS("mpk.Compute", 10, func() {
		if err := mpk.Compute(fusedOp{a, dinv}, prob.m, params, x, nil, S, U); err != nil {
			p.fail("mpk.Compute: %v", err)
		}
	})
	p.set("mpk.compute_ms", mpkMS)
	// Per basis column: one pass over the matrix, four vectors read (u, the
	// two previous columns, the inverse diagonal) and two written.
	p.set("mpk.compute_gbs", gbs(float64(s)*(16*nnz+8*(n+1)+48*n), mpkMS))

	// The s×s Gram system of one outer iteration: Cholesky plus one solve.
	g := dense.FromRowMajor(s, s, vec.GramFused(X, X))
	rhs := make([]float64, s)
	p.set("dense.gram_solve_us", 1e3*p.timeMS("dense.Cholesky+Solve", 200, func() {
		ch, err := dense.Cholesky(g)
		if err != nil {
			p.fail("dense.Cholesky: %v", err)
			return
		}
		copy(rhs, coef[:s])
		if err := ch.Solve(rhs); err != nil {
			p.fail("dense.Chol.Solve: %v", err)
		}
	}))

	p.set("eig.ritz_ms", p.timeMS("eig.RitzFromPCG", 3, func() {
		if _, err := eig.RitzFromPCG(a, prob.m.Apply, eig.Options{Iterations: ritzSteps}); err != nil {
			p.fail("eig.RitzFromPCG: %v", err)
		}
	}))
	p.set("eig.lanczos_ms", p.timeMS("eig.Lanczos", 3, func() {
		if _, err := eig.Lanczos(a, ritzSteps, 4, true, 1); err != nil {
			p.fail("eig.Lanczos: %v", err)
		}
	}))

	p.set("precond.jacobi_build_ms", p.timeMS("precond.NewJacobi", 5, func() {
		if _, err := precond.NewJacobi(a); err != nil {
			p.fail("precond.NewJacobi: %v", err)
		}
	}))
	var ic0 *precond.IC0
	p.set("precond.ic0_apply_ms", 0)
	p.set("precond.ic0_build_ms", p.timeMS("precond.NewIC0", 3, func() {
		var err error
		if ic0, err = precond.NewIC0(a); err != nil {
			p.fail("precond.NewIC0: %v", err)
		}
	}))
	// Blocks of about 32 rows: the dense factor per block stays small.
	p.set("precond.blockjacobi_build_ms", p.timeMS("precond.NewBlockJacobi", 3, func() {
		if _, err := precond.NewBlockJacobi(a, a.Dim()/32+1); err != nil {
			p.fail("precond.NewBlockJacobi: %v", err)
		}
	}))
	apply := func(metric string, m precond.Interface, err error) {
		p.set(metric, 0)
		if err != nil {
			p.fail("%s: %v", metric, err)
			return
		}
		p.set(metric, p.timeMS("precond."+m.Name()+".Apply", 20, func() { m.Apply(dst, x) }))
	}
	apply("precond.jacobi_apply_ms", prob.m, nil)
	if ic0 != nil {
		apply("precond.ic0_apply_ms", ic0, nil)
	}
	ssor, err := precond.NewSSOR(a, 1)
	apply("precond.ssor_apply_ms", ssor, err)
	spec, _ := precond.Parse("chebyshev:3") // the paper's degree; a literal spec always parses
	cheb, err := spec.Build(a)
	apply("precond.chebyshev_apply_ms", cheb, err)
	if math.IsNaN(sink) || fp == 0 {
		p.fail("kernel probes produced NaN")
	}
}

// solvers times whole solves on solve_paper's system, one fixed right-hand
// side, and checks each the way the workload does.
func (p *prober) solvers(prob *paperProblem) {
	a, s := prob.a, paperS
	b := randomRHS(a.Dim(), p.seed+100)
	scratch := make([]float64, a.Dim())
	var ref []float64
	msPerIter := map[string]float64{}

	solve := func(span string, reps int, fn solver.Method, opts solver.Options) (float64, *solver.Stats) {
		var stats *solver.Stats
		ms := p.timeMS(span, reps, func() {
			x, st, err := fn(a, prob.m, b, opts)
			stats = st
			if err != nil || st == nil || !solutionOK(a, b, x, ref, scratch, st.Converged) {
				p.fail("%s: wrong solution (err %v)", span, err)
			}
			if ref == nil {
				ref = x
			}
		})
		if stats == nil {
			stats = &solver.Stats{}
		}
		return ms, stats
	}
	for _, name := range paperMethods {
		fn, _ := solver.ByName(name) // setupSolvePaper resolves the same names
		ms, st := solve("solver."+name, 3, fn, prob.options())
		p.set("solver."+name+".solve_ms", ms)
		p.set("solver."+name+".iters", float64(st.Iterations))
		msPerIter[name] = ratio(ms, float64(st.Iterations))
		p.set("solver."+name+".ms_per_iter", msPerIter[name])
	}
	adaptiveMS, _ := solve("solver.adaptive", 3, solver.SPCGAdaptive, prob.options())
	p.set("solver.adaptive.solve_ms", adaptiveMS)

	bs := vec.NewBlock(a.Dim(), 8)
	for j := 0; j < 8; j++ {
		copy(bs.Col(j), randomRHS(a.Dim(), p.seed+200+int64(j)))
	}
	p.set("solver.batchpcg8.solve_ms", p.timeMS("solver.BatchPCG", 2, func() {
		xs, stats, err := solver.BatchPCG(a, prob.m, bs, prob.options())
		if err != nil || xs == nil {
			p.fail("solver.BatchPCG: %v", err)
			return
		}
		for j, st := range stats {
			if !solutionOK(a, bs.Col(j), xs.Col(j), nil, scratch, st.Converged) {
				p.fail("solver.BatchPCG: column %d wrong", j)
			}
		}
	}))

	// Phase split of one traced sPCG solve, from the solver's own tracer.
	phases := obs.New(1 << 16)
	opts := prob.options()
	opts.Trace = phases
	wall, st := solve("solver.spcg(traced)", 1, solver.SPCG, opts)
	covered := 0.0
	for _, name := range []string{"spmv", "prec", "basis", "gram", "block_update", "vector", "scalar"} {
		p.set("solver.phase."+name+"_ms", 0)
	}
	for _, ph := range st.Phases {
		name := ph.Phase
		if name == "scalar_work" {
			name = "scalar"
		}
		if _, timed := p.out["solver.phase."+name+"_ms"]; timed {
			p.set("solver.phase."+name+"_ms", 1e3*ph.Seconds)
			covered += 1e3 * ph.Seconds
		}
	}
	p.set("solver.phase.coverage", ratio(covered, wall))

	// The plain single-worker baseline of the same solve, in the same run.
	pool.SetDefaultWorkers(1)
	oneWorkerMS, _ := solve("solver.spcg(1 worker)", 3, solver.SPCG, prob.options())
	p.set("solver.spcg.solve_ms_1w", oneWorkerMS)
	pool.SetDefaultWorkers(0)
	p.set("solver.par_speedup", ratio(p.out["solver.spcg.solve_ms_1w"], p.out["solver.spcg.solve_ms"]))

	// Model error of the Table 1 cost model on this box as one node: measured
	// over predicted time per iteration. The node is benchProcs ranks sharing
	// the triad bandwidth; the flop rate stays the model's default.
	machine := dist.DefaultMachine()
	machine.RanksPerNode = benchProcs
	if bw := p.out["bench.triad_gbs"]; bw > 0 {
		machine.NodeMemBW = bw * 1e9
	}
	cl, err := dist.NewCluster(machine, 1, a)
	if err != nil {
		p.fail("dist.NewCluster: %v", err)
	}
	for _, name := range []string{"pcg", "spcg", "capcg"} {
		p.set("perfmodel."+name+".predict_ratio", 0)
		alg, ok := perfmodel.ByName(name)
		if !ok || cl == nil {
			p.fail("perfmodel has no %q", name)
			continue
		}
		pred, err := perfmodel.Predict(alg, s, cl, prob.m.Flops(), prob.m.HaloExchanges(), name != "pcg")
		if err != nil {
			p.fail("perfmodel.Predict %s: %v", name, err)
			continue
		}
		p.set("perfmodel."+name+".predict_ratio", ratio(msPerIter[name], 1e3*pred.Total/float64(s)))
	}
	p.reductions()
}

// reductions checks that the collectives a tracked solve charges per s steps
// are the Table 1 counts (2s for PCG, 1 for the s-step methods), within the
// once-per-solve slack the repository's own Table 1 validation allows.
func (p *prober) reductions() {
	a := sparse.Poisson3D(16, 16, 16)
	m, err := precond.NewJacobi(a)
	if err != nil {
		p.fail("reductions: %v", err)
		return
	}
	cl, err := dist.NewCluster(dist.DefaultMachine(), 1, a)
	if err != nil {
		p.fail("reductions: %v", err)
		return
	}
	est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: ritzSteps})
	if err != nil {
		p.fail("reductions: %v", err)
		return
	}
	b := randomRHS(a.Dim(), p.seed+300)
	match := 1.0
	for _, name := range paperMethods {
		fn, _ := solver.ByName(name)
		alg, _ := perfmodel.ByName(name)
		tracker := dist.NewTracker(cl)
		opts := solver.Options{S: paperS, Basis: basis.Chebyshev, Tol: solveTol, Spectrum: est, Tracker: tracker, Criterion: solver.RecursiveResidualMNorm}
		id := p.tr.begin("solver."+name+"(tracked)", p.root, -1)
		_, st, err := fn(a, m, b, opts)
		p.tr.end(id)
		if err != nil || st == nil || st.Iterations < paperS {
			p.fail("reductions: %s did not run: %v", name, err)
			match = 0
			continue
		}
		perS := float64(tracker.Counts.Allreduces) * paperS / float64(st.Iterations)
		want := float64(perfmodel.GlobalReductionsPerSSteps(alg, paperS))
		if math.Abs(perS-want) > 2*paperS/10.0+1 {
			match = 0
		}
	}
	p.set("dist.reductions_match", match)
}

// spmdLayer times the message-passing runtime's primitives and one solve of
// each kind on spmd_sync's small grid.
func (p *prober) spmdLayer() {
	grids, err := newSpmdGrids(p.smoke)
	if err != nil {
		p.fail("spmd grids: %v", err)
		return
	}
	small, large := grids[0], grids[1]
	const rounds = 2000
	inWorld := func(span string, body func(rk *spmd.Rank)) float64 {
		w := spmd.NewWorld(spmdRanks)
		return p.timeMS(span, 1, func() {
			if err := w.RunE(body); err != nil {
				p.fail("%s: %v", span, err)
			}
		})
	}
	p.set("spmd.allreduce_us", 1e3*inWorld("spmd.Rank.Allreduce", func(rk *spmd.Rank) {
		buf := []float64{1}
		for i := 0; i < rounds; i++ {
			rk.Allreduce(buf)
		}
	})/rounds)
	locals, err := spmd.Distribute(small.a, spmdRanks)
	if err != nil {
		p.fail("spmd.Distribute: %v", err)
		return
	}
	p.set("spmd.halo_exchange_us", 1e3*inWorld("spmd.LocalMatrix.Exchange", func(rk *spmd.Rank) {
		lm := locals[rk.ID]
		x := make([]float64, lm.NLocal())
		for i := 0; i < rounds; i++ {
			lm.Exchange(rk, x)
		}
	})/rounds)
	p.set("spmd.distribute_ms", p.timeMS("spmd.Distribute", 5, func() {
		if _, err := spmd.Distribute(large.a, spmdRanks); err != nil {
			p.fail("spmd.Distribute: %v", err)
		}
	}))

	b := randomRHS(small.a.Dim(), p.seed+400)
	scratch := make([]float64, small.a.Dim())
	var ref []float64
	run := func(metric, span string, call func() (*spmd.Result, error)) {
		var res *spmd.Result
		ms := p.timeMS(span, 5, func() {
			var err error
			res, err = call()
			if err != nil || res == nil || !solutionOK(small.a, b, res.X, ref, scratch, res.Converged) {
				p.fail("%s: wrong solution (err %v)", span, err)
				res = &spmd.Result{}
			}
		})
		if ref == nil {
			ref = res.X
		}
		p.set("spmd."+metric+".allreduces_per_iter", ratio(float64(res.Allreduces), float64(res.Iterations)))
		p.set("spmd."+metric+".us_per_iter", ratio(1e3*ms, float64(res.Iterations)))
	}
	run("pcg", "spmd.PCGJacobi", func() (*spmd.Result, error) { return spmd.PCGJacobi(small.a, b, spmdRanks, solveTol, 0) })
	run("capcg", "spmd.CAPCGJacobi", func() (*spmd.Result, error) {
		return spmd.CAPCGJacobi(small.a, b, spmdRanks, paperS, small.params, solveTol, 0)
	})
}

// tuner times the autotuner's stages on a serve_warm matrix, where tuning is
// part of set-up, and the decision store on a file inside the checkout.
func (p *prober) tuner() error {
	a := sparse.VarCoeff2D(48, 48, 2, 1)
	if p.smoke {
		a = sparse.Poisson2D(16, 16)
	}
	var plan *tune.Plan
	p.set("tune.seed_ms", p.timeMS("tune.Seed", 3, func() {
		var err error
		if plan, err = tune.Seed(a, tune.Config{}); err != nil {
			p.fail("tune.Seed: %v", err)
		}
	}))
	for _, name := range []string{"tune.run_ms", "tune.trials", "tune.store_get_us", "tune.store_put_ms"} {
		p.set(name, 0)
	}
	if plan == nil {
		return nil
	}
	var d *tune.Decision
	p.set("tune.run_ms", p.timeMS("tune.Run", 1, func() {
		var err error
		if d, err = tune.Run(plan, &tune.DirectRunner{A: a}, tune.Config{}); err != nil {
			p.fail("tune.Run: %v", err)
		}
	}))
	if d == nil {
		return nil
	}
	p.set("tune.trials", float64(len(d.Trials)))

	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := tune.OpenStore(filepath.Join(dir, "tune.json"), 128)
	if err != nil {
		return err
	}
	p.set("tune.store_put_ms", p.timeMS("tune.Store.Put", 5, func() {
		if err := store.Put(d); err != nil {
			p.fail("tune.Store.Put: %v", err)
		}
	}))
	const gets = 1000
	p.set("tune.store_get_us", 1e3*p.timeMS("tune.Store.Get", 1, func() {
		for i := 0; i < gets; i++ {
			if _, ok := store.Get(plan.Fingerprint); !ok {
				p.fail("tune.Store.Get: decision missing")
				return
			}
		}
	})/gets)
	return nil
}

// serving measures the fixed costs of the request path on a fresh default
// stack: straight to one backend, then the same request through the gateway.
func (p *prober) serving() error {
	st, err := startStack(service.Config{})
	if err != nil {
		return err
	}
	defer st.close()
	c := st.httpc[0]
	small := "poisson2d:16"
	medium := "varcoeff2d:48:2:1"
	if p.smoke {
		medium = "poisson2d:24"
	}

	// Which backend owns the small matrix, so the direct and the gateway
	// request end at the same backend.
	var aff struct {
		Backend string `json:"backend"`
	}
	if err := getJSON(c, st.gwURL+"/affinity/"+url.PathEscape(small), &aff); err != nil {
		return err
	}
	direct := "http://" + st.addrOf[aff.Backend]

	latency := func(span, base string, req service.SolveRequest, reps int) float64 {
		return p.timeMS(span, reps, func() {
			if r := postSolve(c, base, req); !r.ok() {
				p.fail("%s %s: HTTP %d, %v", span, req.Matrix, r.code, r.err)
			}
		})
	}
	floorReq := requestClass{method: "pcg", noBatch: true}.request(small)
	latency("service.POST /solve", direct, floorReq, 5) // fill the caches
	latency("gateway.POST /solve", st.gwURL, floorReq, 5)
	p.set("service.floor_ms", latency("service.POST /solve", direct, floorReq, 200))
	// Differences are taken pair by pair, the two requests back to back, so
	// the machine's drift cancels instead of deciding the sign.
	pairs := func(reps int, a, b func() float64) float64 {
		if p.smoke {
			reps = 3
		}
		diffs := make([]float64, reps)
		for i := range diffs {
			x := a()
			diffs[i] = b() - x
		}
		p.reps = reps
		return median(diffs)
	}
	one := func(span, base string, req service.SolveRequest) func() float64 {
		return func() float64 { return latency(span, base, req, 1) }
	}
	p.set("gateway.hop_ms", pairs(200, one("service.POST /solve", direct, floorReq), one("gateway.POST /solve", st.gwURL, floorReq)))
	p.set("service.batch_wait_ms", pairs(100, one("service.POST /solve", direct, floorReq), one("service.POST /solve", direct, requestClass{method: "pcg"}.request(small))))

	// A matrix the backend has never seen pays generation, fingerprint,
	// format choice and preconditioner on its first request. IC(0) makes the
	// preconditioner a visible part of that.
	fresh := 0
	p.set("service.setup_miss_ms", -pairs(12, func() float64 {
		fresh++
		req := floorReq
		req.Matrix, req.Precond = fmt.Sprintf("varcoeff2d:64:2:%d", 100+fresh), "ic0"
		return latency("service.POST /solve", direct, req, 1)
	}, func() float64 {
		req := floorReq
		req.Matrix, req.Precond = fmt.Sprintf("varcoeff2d:64:2:%d", 100+fresh), "ic0"
		return latency("service.POST /solve", direct, req, 1)
	}))

	plain := requestClass{method: "pcg", noBatch: true}.request(medium)
	traced := plain
	traced.Trace = true
	latency("service.POST /solve", direct, plain, 3)
	off := latency("service.POST /solve", direct, plain, 30)
	p.set("service.trace_on_ratio", ratio(latency("service.POST /solve", direct, traced, 30), off))

	// First sight of a matrix name at the gateway: one backend round trip
	// that also builds the matrix.
	var resolve []float64
	for k := 0; k < 8; k++ {
		name := fmt.Sprintf("poisson2d:%d", 50+k)
		resolve = append(resolve, p.timeMS("gateway.GET /affinity", 1, func() {
			var doc map[string]any
			if err := getJSON(c, st.gwURL+"/affinity/"+url.PathEscape(name), &doc); err != nil {
				p.fail("gateway /affinity %s: %v", name, err)
			}
		}))
	}
	p.reps = len(resolve)
	p.set("gateway.resolve_ms", median(resolve))
	return nil
}

// probeAll runs every probe. The returned error is an environment failure
// (a listener or a temporary directory); wrong results go to p.failed.
func (p *prober) probeAll(env envStamp) error {
	p.triad(env)
	prob, err := newPaperProblem(p.smoke)
	if err != nil {
		return err
	}
	p.kernels(prob)
	p.solvers(prob)
	p.spmdLayer()
	if err := p.tuner(); err != nil {
		return err
	}
	return p.serving()
}
