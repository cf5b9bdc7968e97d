package solver

import (
	"errors"
	"math"

	"spcg/internal/basis"
	"spcg/internal/dense"
	"spcg/internal/mpk"
	"spcg/internal/obs"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// SPCG solves A·x = b with the paper's contribution: the s-step PCG method
// of Chronopoulos & Gear generalized to arbitrary basis types (Algorithm 5
// with the "Scalar Work" of Algorithm 6). Per outer iteration it computes
// the s+1-column basis matrix S⁽ᵏ⁾ and its preconditioned companion U⁽ᵏ⁾
// with the matrix powers kernel, performs a single global reduction (the
// fused Gram matrices UᵀS and PᵀS), solves two s×s systems for the block
// coefficients a⁽ᵏ⁾ and B⁽ᵏ⁾, and advances s PCG steps with BLAS3-style
// block updates:
//
//	P⁽ᵏ⁾  = U⁽ᵏ⁾  + P⁽ᵏ⁻¹⁾·B⁽ᵏ⁾      AU⁽ᵏ⁾ = S⁽ᵏ⁾·B   (change of basis)
//	AP⁽ᵏ⁾ = S⁽ᵏ⁾·B + AP⁽ᵏ⁻¹⁾·B⁽ᵏ⁾
//	x     += P⁽ᵏ⁾·a⁽ᵏ⁾                r −= AP⁽ᵏ⁾·a⁽ᵏ⁾
//
// One deliberate deviation from the printed Algorithm 6 is documented in
// DESIGN.md: the B⁽ᵏ⁾ system is solved with the transpose orientation that
// the A-orthogonality condition P⁽ᵏ⁾ᵀAP⁽ᵏ⁻¹⁾ = 0 actually requires.
func SPCG(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(spcg, a, m, b, opts)
}

// SPCGMon solves A·x = b with the original monomial-basis s-step PCG of
// Chronopoulos & Gear (Algorithm 2, "sPCG_mon"). It differs from
// SPCG-with-monomial-basis in how the Scalar Work forms its small matrices:
// the matrix of moments U⁽ᵏ⁾ᵀAU⁽ᵏ⁾ and the right-hand side R⁽ᵏ⁾ᵀu⁽ᵏ⁾ are
// reconstructed from the 2s moment values μ_l = rᵀ(M⁻¹A)ˡu (a Hankel fill)
// instead of being measured directly — mathematically equivalent, but with
// different rounding behaviour (paper §3.2, final paragraph). The basis is
// monomial by construction; Options.Basis is ignored.
func SPCGMon(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(spcgMon, a, m, b, opts)
}

func spcg(c *ctx) ([]float64, error)    { return sstep(c, false) }
func spcgMon(c *ctx) ([]float64, error) { return sstep(c, true) }

// sstep is the shared body of SPCG (momentForm=false) and sPCGmon
// (momentForm=true).
func sstep(c *ctx, momentForm bool) ([]float64, error) {
	if momentForm {
		c.opts.Basis = basis.Monomial // monomial by construction
	}
	params, err := c.resolveBasis()
	if err != nil {
		return nil, err
	}
	n, s, stats := c.n, c.opts.S, c.stats
	x, r := c.x, c.residual0(make([]float64, n))

	// State across outer iterations.
	u := make([]float64, n)
	// S and U are one allocation, the solve's first large one, so that a GC
	// cycle starting during the set-up does not size the next heap goal from
	// a sliver of the workspace and start again once the rest is allocated
	// (DESIGN.md, "Workspace allocation and the collector").
	SU := vec.NewBlock(n, 2*s+1)
	S, U := SU.View(0, s+1), SU.View(s+1, 2*s+1)
	P := vec.NewBlock(n, s)
	AP := vec.NewBlock(n, s)
	pNew := vec.NewBlock(n, s)  // double buffer: AddMul may not alias dst with x
	apNew := vec.NewBlock(n, s) //
	sb := vec.NewBlock(n, s)    // S·B scratch
	var wPrev *dense.Mat        // W⁽ᵏ⁻¹⁾ for the B⁽ᵏ⁾ system

	// B (change of basis): AU⁽ᵏ⁾ = S⁽ᵏ⁾·B, (s+1)×s.
	bMat := params.ChangeOfBasis(s + 1)

	haveHistory := false // P⁽ᵏ⁻¹⁾/AP⁽ᵏ⁻¹⁾ valid (false at k=0 and after restarts)
	bestVal := math.Inf(1)

	// Detection (opt-in) resumes a rollback by dropping the history, as the
	// regression restart below does; the block loop rebuilds the rest from r.
	if c.opts.DetectEvery > 0 {
		c.arm(x, r, func(x0, r0 []float64) {
			copy(x, x0)
			copy(r, r0)
			haveHistory, bestVal = false, math.Inf(1)
		})
	}

	for k := 0; ; k++ {
		if c.cancelled() {
			return x, ErrCancelled
		}
		// u⁽ᵏ⁾ = M⁻¹r⁽ᵏ⁾ (needed for both the criterion and the MPK).
		c.applyM(u, r)

		// Convergence check at the block boundary (every s steps, paper
		// §5.2). rᵀu is an entry of the Gram matrix below and ‖r‖² rides in
		// the same collective, so a Lookahead backend pays nothing here.
		rho, rr := c.residualDots(r, u, true)
		if !finite(rho) || rho < 0 {
			if c.recovered(siteRho, "rᵀM⁻¹r = %v at outer iteration %d", rho, k) {
				continue
			}
			break
		}
		critVal, resumed, stop := c.boundary(k, x, r, rho, rr)
		if resumed {
			continue
		}
		if stop || c.blocksSpent(k) {
			break
		}
		// Regression restart: s-step methods can bounce back up after a
		// deep dip when the block basis degenerates near the attainable-
		// accuracy floor (see DESIGN.md). Dropping the search-direction
		// history restarts the block sequence from the current residual —
		// CG-rate convergence resumes as long as the target is above the
		// floor. Costs nothing in communication.
		if critVal < bestVal {
			bestVal = critVal
		} else if critVal > 4*bestVal {
			haveHistory = false
			bestVal = critVal
			stats.Restarts++
		}

		// Basis generation: S⁽ᵏ⁾ spans K_{s+1}(AM⁻¹, r), U⁽ᵏ⁾ = M⁻¹S(:,0:s−1).
		if err := c.powers(params, mpk.Chain{W: r, U0: u, S: S, U: U}); err != nil {
			if c.recovered(siteMPK, "matrix powers kernel: %v", err) {
				continue
			}
			break
		}

		// Scalar Work: one fused global reduction.
		var w, cMat *dense.Mat // W⁽ᵏ⁾ = P⁽ᵏ⁾ᵀAU⁽ᵏ⁾ ; C = P⁽ᵏ⁻¹⁾ᵀAU⁽ᵏ⁾
		var mVec []float64     // m⁽ᵏ⁾ = R⁽ᵏ⁾ᵀu⁽ᵏ⁾
		useHist := haveHistory
		if momentForm {
			// sPCGmon: 2s moments + (substituted) fused Gram for C.
			mu := make([]float64, 2*s)
			for l := 0; l < s; l++ {
				mu[l] = c.localDot(r, U.Col(l))
			}
			for l := s; l < 2*s; l++ {
				mu[l] = c.localDot(S.Col(l-s+1), U.Col(s-1))
			}
			if useHist {
				// C = P⁽ᵏ⁻¹⁾ᵀAU⁽ᵏ⁾ = (AP⁽ᵏ⁻¹⁾)ᵀU⁽ᵏ⁾ fused into the same
				// allreduce (documented substitution for the 1989 moment
				// recurrence; see DESIGN.md).
				red := c.blockReduce(rr, mu, c.gramLocal(AP, U))
				mu, cMat = red[:2*s], dense.FromRowMajor(s, s, red[2*s:2*s+s*s])
			} else {
				mu = c.blockReduce(rr, mu)
			}
			// Hankel fill: (UᵀAU)[i][j] = μ_{i+j+1}, m[j] = μ_j.
			w = dense.NewMat(s, s)
			for i := 0; i < s; i++ {
				for j := 0; j < s; j++ {
					w.Set(i, j, mu[i+j+1])
				}
			}
			mVec = append([]float64(nil), mu[:s]...)
		} else {
			// sPCG: G1 = U⁽ᵏ⁾ᵀS⁽ᵏ⁾ and (k>0) G2 = P⁽ᵏ⁻¹⁾ᵀS⁽ᵏ⁾, fused.
			gs := s * (s + 1)
			var g1, g2 *dense.Mat
			if useHist {
				red := c.blockReduce(rr, c.gramLocal(U, S), c.gramLocal(P, S))
				g1, g2 = dense.FromRowMajor(s, s+1, red[:gs]), dense.FromRowMajor(s, s+1, red[gs:2*gs])
			} else {
				g1 = dense.FromRowMajor(s, s+1, c.blockReduce(rr, c.gramLocal(U, S))[:gs])
			}
			// m⁽ᵏ⁾ = R⁽ᵏ⁾ᵀu⁽ᵏ⁾ = first row of G1 (= uᵀS_j by symmetry of M⁻¹).
			mVec = make([]float64, s)
			for j := 0; j < s; j++ {
				mVec[j] = g1.At(0, j)
			}
			// UᵀAU = G1·B ; C = P⁽ᵏ⁻¹⁾ᵀAU = G2·B.
			w = dense.MatMul(g1, bMat)
			if useHist {
				cMat = dense.MatMul(g2, bMat)
			}
		}

		// B⁽ᵏ⁾ from A-orthogonality: W⁽ᵏ⁻¹⁾·B⁽ᵏ⁾ = −C⁽ᵏ⁾. A singular
		// W⁽ᵏ⁻¹⁾ means the s-step basis has degenerated — reported as a
		// breakdown, the condition behind the paper's Table 2 hyphens.
		// (A variant study with rank-revealing pseudo-inverse solves, a
		// fully expanded W recurrence, and an exact-Galerkin right-hand
		// side was performed during development; all were *less* robust
		// than this paper-faithful form, whose two-term coupling retains
		// more of CG's finite-precision self-correction. See DESIGN.md.)
		// Scalar Work phase span: the dense s×s factorizations and solves.
		// Error exits below drop the span (the run is ending anyway).
		tScalar := c.obs.Begin()
		var bk *dense.Mat
		if useHist {
			rhs := cMat.Clone()
			rhs.Scale(-1)
			f, ferr := dense.LUFactor(wPrev)
			if ferr == nil {
				ferr = f.SolveMat(rhs)
			}
			if ferr != nil {
				if c.recovered(siteWLU, "W⁽ᵏ⁻¹⁾ singular at outer iteration %d: %v", k, ferr) {
					continue
				}
				break
			}
			bk = rhs
			// W⁽ᵏ⁾ = U⁽ᵏ⁾ᵀAU⁽ᵏ⁾ + B⁽ᵏ⁾ᵀ·C⁽ᵏ⁾ (derivation in DESIGN.md).
			w.AddMat(1, dense.MatMul(bk.T(), cMat))
		}
		w.Symmetrize()

		// a⁽ᵏ⁾ from W⁽ᵏ⁾·a⁽ᵏ⁾ = m⁽ᵏ⁾.
		aVec, aerr := dense.SolveSPD(w, mVec)
		if aerr == nil && !finite(aVec...) {
			aerr = errors.New("non-finite a⁽ᵏ⁾")
		}
		if aerr != nil {
			if c.recovered(siteGramChol, "W⁽ᵏ⁾ system at outer iteration %d: %v", k, aerr) {
				continue
			}
			break
		}
		c.obs.End(obs.PhaseScalarWork, tScalar)

		// Block updates.
		if !useHist {
			c.copyBlock(P, U)
			c.blockMul(AP, S, bMat.Data) // AP⁽⁰⁾ = S·B
		} else {
			c.blockAddMul(pNew, U, P, bk.Data) // P⁽ᵏ⁾ = U + P⁽ᵏ⁻¹⁾·B⁽ᵏ⁾
			P, pNew = pNew, P
			c.blockMul(sb, S, bMat.Data)
			c.blockAddMul(apNew, sb, AP, bk.Data) // AP⁽ᵏ⁾ = S·B + AP⁽ᵏ⁻¹⁾·B⁽ᵏ⁾
			AP, apNew = apNew, AP
		}
		c.blockMulVecAdd(x, 1, P, aVec)   // x += P·a
		c.blockMulVecAdd(r, -1, AP, aVec) // r −= AP·a
		c.inj.CorruptVector(r)

		// A residual that diverged here shows at the next boundary, in the
		// reduced rᵀu — never by peeking at a local entry of r.
		wPrev = w
		haveHistory = true
		c.counted(k+1, s)
	}
	return x, nil
}
