package solver

import (
	"spcg/internal/dense"
	"spcg/internal/mpk"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// CAPCG3 solves A·x = b with Hoemmen's communication-avoiding three-term
// PCG (paper Algorithm 4). Each outer iteration builds the s+1-column basis
// W⁽ᵏ⁾ of K_{s+1}(AM⁻¹, r) plus V⁽ᵏ⁾ = M⁻¹W⁽ᵏ⁾, keeps the previous outer
// iteration's s residuals R⁽ᵏ⁻¹⁾ (and U⁽ᵏ⁻¹⁾ = M⁻¹R⁽ᵏ⁻¹⁾) as the rest of
// the basis, and computes the Gram matrix
//
//	G⁽ᵏ⁾ = [U⁽ᵏ⁻¹⁾, V⁽ᵏ⁾]ᵀ · [R⁽ᵏ⁻¹⁾, W⁽ᵏ⁾]
//
// with a single global reduction. The s inner iterations run Rutishauser's
// three-term recurrences, forming w = A·u and v = M⁻¹A·u without
// communication via auxiliary coefficient vectors d = T·g, where T is the
// change-of-basis map: on the W block it is B_{s+1} of Eq. (9); on the
// R⁽ᵏ⁻¹⁾ block it inverts the previous outer iteration's own three-term
// recurrence using its saved (ρ, γ) scalars.
//
// The updates of x, r, u (and the n-vector gathers for w, v) are BLAS1,
// which is the performance drawback the paper's §4.1 identifies. Here every
// scalar of an inner step comes from O(s²) data — d = T·g, μ, ν, γ, ρ and
// the g recurrence read no n-vector — so each outer iteration runs in two
// passes: the s steps' scalars first, up to the first breakdown, then every
// applied step's gathers and updates in one sweep over row tiles
// (ctx.threeTermSteps), which keeps a tile's rows of both (2s+1)-column
// blocks in cache across the steps. w and v never reach memory, and the
// residual pairs are written straight into the next outer iteration's basis
// columns.
func CAPCG3(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(capcg3, a, m, b, opts)
}

func capcg3(c *ctx) ([]float64, error) {
	params, err := c.resolveBasis()
	if err != nil {
		return nil, err
	}
	n, s, stats := c.n, c.opts.S, c.stats
	// x and its predecessor: each step writes the next iterate over the
	// predecessor, which every row reads before it is overwritten.
	x, xPrev := c.x, make([]float64, n)

	dim := 2*s + 1
	wBlock := vec.NewBlock(n, s+1) // W⁽ᵏ⁾
	vBlock := vec.NewBlock(n, s+1) // V⁽ᵏ⁾ = M⁻¹W⁽ᵏ⁾
	rOld := vec.NewBlock(n, s)     // R⁽ᵏ⁻¹⁾ (zero at k=0)
	uOld := vec.NewBlock(n, s)     // U⁽ᵏ⁻¹⁾
	// R⁽ᵏ⁾ and U⁽ᵏ⁾: inner step j runs on column j and writes column j+1.
	// Column 0 holds the block's opening r and u = M⁻¹r.
	rNew := vec.NewBlock(n, s)
	uNew := vec.NewBlock(n, s)
	c.residual0(rNew.Col(0))
	rw := &vec.Block{N: n, Cols: make([][]float64, 0, dim)}
	uv := &vec.Block{N: n, Cols: make([][]float64, 0, dim)}
	join := func() {
		rw.Cols = append(append(rw.Cols[:0], rOld.Cols...), wBlock.Cols...)
		uv.Cols = append(append(uv.Cols[:0], uOld.Cols...), vBlock.Cols...)
	}
	join()

	// Change-of-basis map T: AM⁻¹·[R⁽ᵏ⁻¹⁾, W⁽ᵏ⁾] = [R⁽ᵏ⁻¹⁾, W⁽ᵏ⁾]·T. Its W
	// block — rows s..2s, columns s..2s−1 — is the basis's own recurrence
	// B_{s+1} and never changes; only columns 0..s−1 (the R⁽ᵏ⁻¹⁾ block) are
	// rebuilt every outer iteration.
	t := dense.NewMat(dim, dim)
	bMat := params.ChangeOfBasis(s + 1) // (s+1)×s
	for i := 0; i <= s; i++ {
		for j := 0; j < s; j++ {
			t.Set(s+i, s+j, bMat.At(i, j))
		}
	}

	// Previous outer iteration's inner scalars (for the R-block of T).
	gammaOld := make([]float64, s)
	rhoOld := make([]float64, s)

	// Cross-boundary three-term recurrence state. first marks a step without
	// a predecessor, which takes ρ = 1: the start, or a resume from a
	// rollback, which detection (opt-in) makes as at the start — zero
	// previous block, so T's R-block stays clear.
	first := true
	var gammaPrev, muPrev, rhoPrev float64
	if c.opts.DetectEvery > 0 {
		c.arm(x, rNew.Col(0), func(x0, r0 []float64) {
			copy(x, x0)
			copy(rNew.Col(0), r0)
			clear(xPrev)
			rOld.Zero()
			uOld.Zero()
			first = true
		})
	}

	// Coefficient vectors; row j of dRows is inner step j's d = T·g.
	g := make([]float64, dim)
	gPrev := make([]float64, dim)
	gNext := make([]float64, dim)
	dRows := make([]float64, s*dim)
	tmp := make([]float64, dim)
	steps := make([]vec.Step, 0, s)

blocks:
	for k := 0; ; k++ {
		if c.cancelled() {
			return x, ErrCancelled
		}
		r, u := rNew.Col(0), uNew.Col(0)
		c.applyM(u, r)
		// Convergence check at the block boundary (rᵀu is an entry of G).
		rho0, rr := c.residualDots(r, u, true)
		if !finite(rho0) || rho0 < 0 {
			if c.recovered(siteRho, "rᵀM⁻¹r = %v at outer iteration %d", rho0, k) {
				continue
			}
			break
		}
		if _, resumed, stop := c.boundary(k, x, r, rho0, rr); resumed {
			continue
		} else if stop || c.blocksSpent(k) {
			break
		}

		// Basis: W⁽ᵏ⁾ spans K_{s+1}(AM⁻¹, r), V⁽ᵏ⁾ = M⁻¹W⁽ᵏ⁾ (full width):
		// s MVs + s preconditioner applications (u⁽ˢᵏ⁾ is in hand).
		if err := c.powers(params, mpk.Chain{W: r, U0: u, S: wBlock, U: vBlock}); err != nil {
			if c.recovered(siteMPK, "matrix powers kernel: %v", err) {
				continue
			}
			break
		}

		// Gram matrix: the single global reduction.
		gm := dense.FromRowMajor(dim, dim, c.blockReduce(rr, c.gramLocal(uv, rw))[:dim*dim])

		// T's R⁽ᵏ⁻¹⁾ block: its entries lie in rows 0..s of columns 0..s−1.
		for i := 0; i <= s; i++ {
			clear(t.Data[i*dim : i*dim+s])
		}
		if !first {
			// Invert the previous block's recurrence
			// r⁽ᵗ⁺¹⁾ = ρ(r⁽ᵗ⁾ − γ·AM⁻¹r⁽ᵗ⁾) + (1−ρ)r⁽ᵗ⁻¹⁾:
			// AM⁻¹r⁽ᵗ⁾ = [ρ·r⁽ᵗ⁾ + (1−ρ)·r⁽ᵗ⁻¹⁾ − r⁽ᵗ⁺¹⁾]/(ρ·γ).
			// Column 0 (t = s(k−1)) would need r⁽ˢ⁽ᵏ⁻¹⁾⁻¹⁾, which is no
			// longer in the basis — but no inner step ever uses it
			// (coefficients reach only down to column 1).
			for i := 1; i < s; i++ {
				rg := rhoOld[i] * gammaOld[i]
				if rg == 0 || !finite(rg) {
					continue // breakdown already recorded when it happened
				}
				t.Add(i, i, rhoOld[i]/rg)
				t.Add(i-1, i, (1-rhoOld[i])/rg)
				next := i + 1
				if i == s-1 {
					next = s // r⁽ˢᵏ⁾ = W⁽ᵏ⁾ column 0
				}
				t.Add(next, i, -1/rg)
			}
		}

		// Coefficient vectors: r⁽ˢᵏ⁾ = W₀ → g = e_s; r⁽ˢᵏ⁻¹⁾ = last column
		// of R⁽ᵏ⁻¹⁾ → gPrev = e_{s−1} (zero vector at k = 0).
		for i := range g {
			g[i], gPrev[i] = 0, 0
		}
		g[s] = 1
		if !first {
			gPrev[s-1] = 1
		}

		// Pass 1: the inner steps' scalars, which read only O(s²) data, up
		// to the first breakdown; each applied step is saved with its d.
		broke := false
		steps = steps[:0]
		for j := 0; j < s; j++ {
			d := dRows[j*dim : (j+1)*dim]
			matVec(t, g, d)
			mu := quadForm(gm, g, tmp)
			nu := bilinear(gm, g, d, tmp)
			if !finite(mu, nu) || nu <= 0 || mu < 0 {
				if c.recovered(siteCurv, "μ=%v ν=%v at iteration %d", mu, nu, stats.Iterations+j) {
					continue blocks
				}
				broke = true
				break
			}
			gamma, rho := mu/nu, 1.0
			if !first {
				den := 1 - (gamma/gammaPrev)*(mu/muPrev)*(1/rhoPrev)
				if den == 0 || !finite(den) {
					if c.recovered(siteRecur, "ρ recurrence denominator %v at iteration %d", den, stats.Iterations+j) {
						continue blocks
					}
					broke = true
					break
				}
				rho = 1 / den
			}
			first = false

			gammaOld[j], rhoOld[j] = gamma, rho

			// The step's vectors: w = A·u and v = M⁻¹A·u, gathered without
			// communication, feed the three-term updates. Step j reads the
			// residual pair of step j−1 (at j = 0 the last pair of R⁽ᵏ⁻¹⁾,
			// zero at k = 0) and writes that of step j+1 into the next
			// column. The last step's r opens the next block: it goes to
			// R⁽ᵏ⁻¹⁾'s column 0, whose rows the sweep reads before it writes
			// them and which becomes R⁽ᵏ⁺¹⁾'s column 0 at the swap below. Its
			// u is not formed: the next block opens with u = M⁻¹r.
			rs := vec.Recur{Cur: rNew.Col(j), Prev: rOld.Col(s - 1)}
			us := vec.Recur{Cur: uNew.Col(j), Prev: uOld.Col(s - 1)}
			if j > 0 {
				rs.Prev, us.Prev = rNew.Col(j-1), uNew.Col(j-1)
			}
			if j+1 < s {
				rs.Next, us.Next = rNew.Col(j+1), uNew.Col(j+1)
			} else {
				rs.Next = rOld.Col(0)
			}
			steps = append(steps, vec.Step{X: vec.Recur{Next: xPrev, Cur: x, Prev: xPrev}, R: rs, U: us, D: d, Rho: rho, Gamma: gamma})
			x, xPrev = xPrev, x

			// Coefficient recurrence (O(s), negligible cost).
			for i := range gNext {
				gNext[i] = rho*(g[i]-gamma*d[i]) + (1-rho)*gPrev[i]
			}
			gPrev, g, gNext = g, gNext, gPrev

			gammaPrev, muPrev, rhoPrev = gamma, mu, rho
		}
		// Pass 2: every applied step's vector work in one sweep; a step past
		// a breakdown never reaches x, r or u.
		c.threeTermSteps(steps, rw, uv)

		rOld, rNew = rNew, rOld
		uOld, uNew = uNew, uOld
		join()
		stats.OuterIterations = k + 1
		stats.Iterations += len(steps)
		if broke {
			break
		}
	}
	return x, nil
}
