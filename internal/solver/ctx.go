package solver

import (
	"fmt"
	"math"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/fault"
	"spcg/internal/mpk"
	"spcg/internal/obs"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// ctx is the shared instrumented execution context: it carries out every
// length-n operation through the Backend and simultaneously counts events,
// records phase spans and charges the distributed cost model. All solvers go
// through it, so their measured costs are comparable and the algorithm
// bodies never learn which backend they run on.
type ctx struct {
	be    Backend
	fused fusedKernels // be's, when it has them; else nil
	k     vec.Exec     // be.Exec(), cached
	n     int          // be.Rows()
	opts  Options      // defaults applied
	stats *Stats
	obs   *obs.Tracer // nil-safe: phase spans when tracing is enabled

	// Attached by the local entry point only (attachLocal); zero elsewhere.
	tr        *dist.Tracker   // nil-safe: modeled-cost charge
	inj       *fault.Injector // nil-safe: corrupts SpMV outputs and residual updates
	precFlops float64         // modeled cost of one ApplyM
	precHalos int

	b, x    []float64  // right-hand side and the iterate the prologue prepared
	scratch []float64  // explicit-residual workspace
	red     [3]float64 // send buffer of the scalar collectives (dot, residualDots, pcg3's, the probe's)

	// Convergence checker state (criteria.go).
	initial float64 // ‖r⁰‖ or √(r⁰ᵀu⁰), set by the first done()
	nchecks int

	// guard, when a body armed it, detects corruption and rolls back
	// (recovery.go).
	guard *guard

	// ahead is the next iteration's opening product, when an explicit residual
	// could take it along in its pass over the matrix (lookahead.go).
	ahead lookahead

	// The iterations and outer iterations earlier phases of the run did
	// (adaptive); a body counts on from them.
	iterBase, outerBase int
}

// newCtx is the prologue every solve starts with: dimension and option
// checks, then the iterate x⁰ and the workspaces. opts carries defaults.
func newCtx(be Backend, b []float64, opts Options) (*ctx, error) {
	n := be.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("%w: len(b)=%d, n=%d", ErrDimension, len(b), n)
	}
	if opts.Criterion < TrueResidual2Norm || opts.Criterion > RecursiveResidualMNorm {
		return nil, fmt.Errorf("solver: unknown criterion %v", opts.Criterion)
	}
	x := make([]float64, n)
	if opts.X0 != nil {
		if len(opts.X0) != n {
			return nil, fmt.Errorf("%w: len(x0)=%d, n=%d", ErrDimension, len(opts.X0), n)
		}
		copy(x, opts.X0)
	}
	c := &ctx{
		be: be, k: be.Exec(), n: n, opts: opts, stats: &Stats{}, obs: opts.Trace,
		b: b, x: x, scratch: make([]float64, n),
	}
	c.fused, _ = be.(fusedKernels)
	c.ahead.init(n)
	return c, nil
}

// attachLocal adds what exists only on the local backend.
func (c *ctx) attachLocal(lb *local) {
	c.tr, c.inj = c.opts.Tracker, c.opts.Injector
	c.precFlops, c.precHalos = lb.m.Flops(), lb.m.HaloExchanges()
}

// residual0 computes r⁰ = b − A·x⁰ into r and returns it.
func (c *ctx) residual0(r []float64) []float64 {
	c.spmv(r, c.x)
	c.k.Sub(r, c.b, r)
	c.tr.VectorOp(float64(c.n), 24*float64(c.n))
	return r
}

// cancelled polls Options.Cancel without blocking. Solvers call it once per
// (outer) iteration, so cancellation latency is one iteration's work.
func (c *ctx) cancelled() bool {
	if c.opts.Cancel == nil {
		return false
	}
	select {
	case <-c.opts.Cancel:
		return true
	default:
		return false
	}
}

// spmv computes dst = A·src, charging one distributed SpMV. An installed
// fault injector may silently corrupt the output — the soft-error model the
// detection/recovery machinery defends against.
func (c *ctx) spmv(dst, src []float64) {
	t0 := c.obs.Begin()
	c.be.SpMV(dst, src)
	c.obs.End(obs.PhaseSpMV, t0)
	c.chargeSpMV(dst)
}

// chargeSpMV is everything about one product dst = A·src except computing
// it: the injector's draw on the output, the modeled charge (halo exchange
// included) and the count.
func (c *ctx) chargeSpMV(dst []float64) {
	c.inj.CorruptSpMV(dst)
	c.tr.SpMV()
	c.stats.MVProducts++
}

// applyM computes dst = M⁻¹·src, charging one preconditioner application.
func (c *ctx) applyM(dst, src []float64) {
	t0 := c.obs.Begin()
	c.be.ApplyM(dst, src)
	c.obs.End(obs.PhasePrec, t0)
	c.chargePrec()
}

// chargePrec charges one preconditioner application.
func (c *ctx) chargePrec() {
	c.tr.PrecApply(c.precFlops, c.precHalos)
	c.stats.PrecApplies++
}

// mpkOp adapts the context to mpk.Operator (and mpk.ColumnStepper: the fused
// SpMV + three-term + diagonal-preconditioner step, one or two chains per
// pass; mpk.PairMultiplier: two chains' products in one pass). Its products
// are shown to the fault injector where they are formed, but timed and
// charged by powers, around and after the whole kernel call.
type mpkOp struct{ c *ctx }

func (o mpkOp) Dim() int { return o.c.n }

func (o mpkOp) MulVec(dst, src []float64) {
	o.c.be.SpMV(dst, src)
	o.c.inj.CorruptSpMV(dst)
}

// FusedBasisSteps implements mpk.ColumnStepper when the backend offers the
// fused step and no fault injector needs to observe the raw SpMV output.
func (o mpkOp) FusedBasisSteps(cols [2]sparse.BasisCol, k int, theta, mu, gamma float64) bool {
	c := o.c
	if c.fused == nil || c.inj != nil {
		return false // the soft-error model corrupts SpMV outputs; keep them visible
	}
	return c.fused.FusedBasisSteps(cols, k, theta, mu, gamma)
}

// MulVecPair implements mpk.PairMultiplier on the look-ahead's paired
// product. powers hands mpk.ComputePair only a context that has one.
func (o mpkOp) MulVecPair(dst, src [2][]float64) {
	o.c.pair(dst[0], dst[1], src[0], src[1])
}

// mpkPrec adapts the context to mpk.Preconditioner; like mpkOp it leaves the
// span and the charge to powers.
type mpkPrec struct{ c *ctx }

func (p mpkPrec) Apply(dst, src []float64) { p.c.be.ApplyM(dst, src) }

// powers runs the matrix powers kernel on one basis chain, or on CA-PCG's two,
// under one basis span: fused, paired or one column at a time, the trace
// shows one matrix-powers call, as Table 1 prices it in one #MV+#prec column.
// The two chains share each pass over the matrix (mpk.ComputePair) — and on
// ranks each halo exchange — where the backend pairs products and no fault
// injector draws on them; the injector path runs them one after the other.
// Either way a product or preconditioner application is charged where the
// Gram consumes the basis, after the kernel, in the order the chains run one
// after the other: every event of the first chain, then every event of the
// second. Counts, modeled time and the fault stream are therefore those of
// two separate kernel calls.
func (c *ctx) powers(params *basis.Params, chains ...mpk.Chain) error {
	op, prec := mpkOp{c}, mpkPrec{c}
	t0 := c.obs.Begin()
	var err error
	if len(chains) == 2 && c.inj == nil && c.fused != nil {
		err = mpk.ComputePair(op, prec, params, chains[0], chains[1])
	} else {
		for _, ch := range chains {
			if err = mpk.Compute(op, prec, params, ch.W, ch.U0, ch.S, ch.U); err != nil {
				break
			}
		}
	}
	c.obs.End(obs.PhaseBasis, t0)
	if err != nil {
		return err
	}
	for _, ch := range chains {
		c.chargeBasis(ch)
	}
	return nil
}

// chargeBasis charges one chain's kernel call as mpk.Compute runs it: the
// application that forms U's column 0 when the caller had none, then per new
// column one product and, when U has that column, one application.
func (c *ctx) chargeBasis(ch mpk.Chain) {
	if ch.U0 == nil {
		c.chargePrec()
	}
	for l := 1; l < ch.S.S(); l++ {
		c.tr.SpMV()
		c.stats.MVProducts++
		if l < ch.U.S() {
			c.chargePrec()
		}
	}
}

// allreduce sums buf over all ranks: one collective, counted and charged. On
// the local backend the values already are global and only the charge
// remains.
func (c *ctx) allreduce(buf []float64) []float64 {
	out := c.be.Reduce(buf)
	c.tr.Allreduce(len(buf))
	c.obs.Count(obs.PhaseCollective, int64(len(buf)))
	c.stats.Allreduces++
	c.stats.AllreduceValues += len(buf)
	return out
}

// reduceAhead returns the global values of block-boundary scalars whose
// reduction an s-step method fuses into its next Gram collective. A Lookahead
// backend holds them already and the charge arrives with that collective; a
// rank cannot branch on a sum it has not reduced and pays for a collective
// now.
func (c *ctx) reduceAhead(buf []float64) []float64 {
	if c.be.Lookahead() {
		return buf
	}
	return c.allreduce(buf)
}

// blockReduce is the s-step methods' one collective per outer iteration: the
// Gram blocks back to back, plus the ‖r‖² slot the 2-norm criterion fuses
// into it.
func (c *ctx) blockReduce(rr float64, blocks ...[]float64) []float64 {
	buf := blocks[0]
	for _, blk := range blocks[1:] {
		buf = append(buf, blk...)
	}
	if c.opts.Criterion == RecursiveResidual2Norm {
		buf = append(buf, rr)
	}
	return c.allreduce(buf)
}

// dot computes one globally reduced inner product (PCG-style: its own
// allreduce).
func (c *ctx) dot(a, b []float64) float64 {
	c.red[0] = c.localDot(a, b)
	return c.allreduce(c.red[:1])[0]
}

// localDot computes the rank-local part of an inner product, counted as
// local reduction work but NOT reduced — callers fuse it into a collective.
func (c *ctx) localDot(a, b []float64) float64 {
	c.tr.ReduceLocal(2*float64(c.n), 16*float64(c.n))
	t0 := c.obs.Begin()
	v := c.k.Dot(a, b)
	c.obs.End(obs.PhaseGram, t0)
	return v
}

// residualDots reduces rᵀu, and ‖r‖² with it when the 2-norm criterion needs
// it, in one collective — or ahead of the next one at a block boundary.
func (c *ctx) residualDots(r, u []float64, ahead bool) (rho, rr float64) {
	buf := c.red[:1]
	buf[0] = c.localDot(r, u)
	if c.opts.Criterion == RecursiveResidual2Norm {
		buf = append(buf, c.localDot(r, r))
	}
	if ahead {
		buf = c.reduceAhead(buf)
	} else {
		buf = c.allreduce(buf)
	}
	if len(buf) > 1 {
		rr = buf[1]
	}
	return buf[0], rr
}

// gramLocal computes the rank-local Xᵀ·Y with the fused cache-blocked
// kernel, charging BLAS3-style reduction work.
func (c *ctx) gramLocal(x, y *vec.Block) []float64 {
	sa, sb := x.S(), y.S()
	flops := 2 * float64(sa) * float64(sb) * float64(c.n)
	bytes := 8 * float64(c.n) * float64(sa+sb) // blocked: stream each operand once
	t0 := c.obs.Begin()
	c.tr.ReduceLocal(flops, bytes)
	g := c.k.GramFused(x, y)
	c.obs.End(obs.PhaseGram, t0)
	return g
}

// gramVecLocal computes the rank-local Xᵀ·v.
func (c *ctx) gramVecLocal(x *vec.Block, v []float64) []float64 {
	s := x.S()
	c.tr.ReduceLocal(2*float64(s)*float64(c.n), 8*float64(c.n)*float64(s+1))
	t0 := c.obs.Begin()
	g := c.k.GramVecFused(x, v)
	c.obs.End(obs.PhaseGram, t0)
	return g
}

// axpy charges y += α·x.
func (c *ctx) axpy(alpha float64, x, y []float64) {
	t0 := c.obs.Begin()
	c.k.Axpy(alpha, x, y)
	c.obs.End(obs.PhaseVector, t0)
	c.tr.VectorOp(2*float64(c.n), 24*float64(c.n))
}

// xpay charges dst = x + α·y.
func (c *ctx) xpay(dst, x []float64, alpha float64, y []float64) {
	t0 := c.obs.Begin()
	c.k.XpayInto(dst, x, alpha, y)
	c.obs.End(obs.PhaseVector, t0)
	c.tr.VectorOp(2*float64(c.n), 24*float64(c.n))
}

// threeTermUpdate charges dst = ρ(x − γ·y) + (1−ρ)·w, the BLAS1 pattern of
// PCG3/CA-PCG3 (4 flops per row, 4 streams).
func (c *ctx) threeTermUpdate(dst []float64, rho float64, x []float64, gamma float64, y, w []float64) {
	t0 := c.obs.Begin()
	c.k.ThreeTermInto(dst, rho, x, gamma, y, w)
	c.obs.End(obs.PhaseVector, t0)
	c.tr.VectorOp(4*float64(c.n), 32*float64(c.n))
}

// threeTermSteps is CA-PCG3's inner steps — per step the gathers w = RW·d
// and v = UV·d and the three-term updates of x, r and u — in one sweep
// (vec.Exec.ThreeTermSteps) under one block-update span. It then charges,
// step by step, the five kernels each step replaces, in their order: the two
// gathers, then the three updates (the last step's u update, which nothing
// reads, included).
func (c *ctx) threeTermSteps(steps []vec.Step, rw, uv *vec.Block) {
	t0 := c.obs.Begin()
	c.k.ThreeTermSteps(steps, rw, uv)
	c.obs.End(obs.PhaseBlockUpdate, t0)
	n := float64(c.n)
	for _, st := range steps {
		dim := float64(len(st.D))
		for range 2 {
			c.tr.VectorOp(2*dim*n, 8*n*(dim+1))
		}
		for range 3 {
			c.tr.VectorOp(4*n, 32*n)
		}
	}
}

// copyBlock copies src into dst on the pool under the block-update span.
// Uncharged: the model prices arithmetic and messages, and a copy is neither.
func (c *ctx) copyBlock(dst, src *vec.Block) {
	t0 := c.obs.Begin()
	c.k.CopyBlock(dst, src)
	c.obs.End(obs.PhaseBlockUpdate, t0)
}

// blockMulVec charges dst = X·coef (one fused destination sweep).
func (c *ctx) blockMulVec(dst []float64, x *vec.Block, coef []float64) {
	t0 := c.obs.Begin()
	c.k.CombineFused(dst, x, coef)
	c.obs.End(obs.PhaseBlockUpdate, t0)
	s := float64(x.S())
	c.tr.VectorOp(2*s*float64(c.n), 8*float64(c.n)*(s+1))
}

// blockMulVecAdd charges dst += alpha·X·coef for alpha = ±1 (x += P·a and
// r −= AP·a).
func (c *ctx) blockMulVecAdd(dst []float64, alpha float64, x *vec.Block, coef []float64) {
	t0 := c.obs.Begin()
	c.k.AddScaledFused(dst, alpha, x, coef)
	c.obs.End(obs.PhaseBlockUpdate, t0)
	s := float64(x.S())
	c.tr.VectorOp(2*s*float64(c.n), 8*float64(c.n)*(s+1))
}

// blockAddMul charges dst = Y + X·C (the BLAS3 search-direction update).
func (c *ctx) blockAddMul(dst, y, x *vec.Block, coef []float64) {
	t0 := c.obs.Begin()
	c.k.AddMulFused(dst, y, x, coef)
	c.obs.End(obs.PhaseBlockUpdate, t0)
	sx, sd := float64(x.S()), float64(dst.S())
	flops := 2 * sx * sd * float64(c.n)
	bytes := 8 * float64(c.n) * (sx + 2*sd)
	c.tr.VectorOp(flops, bytes)
}

// blockMul charges dst = X·C.
func (c *ctx) blockMul(dst, x *vec.Block, coef []float64) {
	t0 := c.obs.Begin()
	c.k.MulFused(dst, x, coef)
	c.obs.End(obs.PhaseBlockUpdate, t0)
	sx, sd := float64(x.S()), float64(dst.S())
	c.tr.VectorOp(2*sx*sd*float64(c.n), 8*float64(c.n)*(sx+sd))
}

// explicitResidual computes b − A·x into the scratch vector (charged: one
// SpMV and one vector sweep) and returns it. Only the boundary step forms it,
// once per check, for every consumer due there. A look-ahead product on offer
// rides along in the pass over the matrix.
func (c *ctx) explicitResidual(x []float64) []float64 {
	c.spmvWithNext(c.scratch, x)
	c.k.Sub(c.scratch, c.b, c.scratch)
	c.tr.VectorOp(float64(c.n), 24*float64(c.n))
	return c.scratch
}

// counted records that the body has done outer iterations of s steps each.
func (c *ctx) counted(outer, s int) {
	c.stats.OuterIterations = c.outerBase + outer
	c.stats.Iterations = c.iterBase + outer*s
}

// finish fills the end-of-run stats shared by all solvers. A run that broke
// down *after* actually reaching the requested accuracy (common when a block
// method converges mid-block and the next Gram matrix is numerically
// singular) is reported as converged — the paper's tables count accuracy
// reached, not the internal stopping path. The promotion rests on a reduced
// value, so every rank decides it alike.
func (c *ctx) finish(x []float64) {
	c.stats.TrueRelResidual = trueRelResidual(c.be, c.b, x, c.opts.X0, c.scratch)
	if !c.stats.Converged && c.stats.TrueRelResidual <= c.opts.Tol {
		c.stats.Converged = true
	}
	if c.tr != nil {
		c.stats.SimTime = c.tr.Time
	}
	if c.obs != nil {
		c.stats.Phases = c.obs.Breakdown().Phases
	}
}

// trueRelResidual computes ‖b−Ax‖₂/‖b−Ax⁰‖₂ for final reporting, straight on
// the backend: outside the cost model, the event counts and the fault
// injector. tmp is workspace of the vectors' length.
func trueRelResidual(be Backend, b, x, x0, tmp []float64) float64 {
	sums := make([]float64, 2) // ‖b−Ax‖², ‖b−Ax⁰‖²
	be.SpMV(tmp, x)
	for i, v := range tmp {
		d := b[i] - v
		sums[0] += d * d
	}
	if x0 == nil {
		for _, v := range b {
			sums[1] += v * v
		}
	} else {
		be.SpMV(tmp, x0)
		for i, v := range tmp {
			d := b[i] - v
			sums[1] += d * d
		}
	}
	sums = be.Reduce(sums)
	if sums[1] == 0 {
		return 0
	}
	return math.Sqrt(sums[0]) / math.Sqrt(sums[1])
}

// finite reports whether all values are finite.
func finite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
