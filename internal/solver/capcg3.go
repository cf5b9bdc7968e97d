package solver

import (
	"spcg/internal/dense"
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
// which is the performance drawback the paper's §4.1 identifies.
func CAPCG3(a sparse.Matrix, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(capcg3, a, m, b, opts)
}

func capcg3(c *ctx) ([]float64, error) {
	params, err := c.resolveBasis()
	if err != nil {
		return nil, err
	}
	n, s, stats := c.n, c.opts.S, c.stats
	x, r := c.x, c.residual0()

	dim := 2*s + 1
	u := make([]float64, n)
	w := make([]float64, n)
	v := make([]float64, n)
	xPrev := make([]float64, n)
	rPrev := make([]float64, n)
	uPrev := make([]float64, n)
	xNext := make([]float64, n)
	rNext := make([]float64, n)
	uNext := make([]float64, n)

	wBlock := vec.NewBlock(n, s+1) // W⁽ᵏ⁾
	vBlock := vec.NewBlock(n, s+1) // V⁽ᵏ⁾ = M⁻¹W⁽ᵏ⁾
	rOld := vec.NewBlock(n, s)     // R⁽ᵏ⁻¹⁾ (zero at k=0)
	uOld := vec.NewBlock(n, s)     // U⁽ᵏ⁻¹⁾
	rNew := vec.NewBlock(n, s)
	uNew := vec.NewBlock(n, s)
	rw := &vec.Block{N: n, Cols: append(append([][]float64{}, rOld.Cols...), wBlock.Cols...)}
	uv := &vec.Block{N: n, Cols: append(append([][]float64{}, uOld.Cols...), vBlock.Cols...)}

	bMat := params.ChangeOfBasis(s + 1) // (s+1)×s, W-block recurrence

	// Previous outer iteration's inner scalars (for the R-block of T).
	gammaOld := make([]float64, s)
	rhoOld := make([]float64, s)

	// Cross-boundary three-term recurrence state.
	rho := 1.0
	var gammaPrev, muPrev, rhoPrev float64

	// Coefficient vectors.
	g := make([]float64, dim)
	gPrev := make([]float64, dim)
	gNext := make([]float64, dim)
	d := make([]float64, dim)
	tmp := make([]float64, dim)

	globalStep := 0

	for k := 0; ; k++ {
		if c.cancelled() {
			return x, ErrCancelled
		}
		c.applyM(u, r)
		// Convergence check at the block boundary (rᵀu is an entry of G).
		rho0, rr := c.residualDots(r, u, true)
		if !finite(rho0) || rho0 < 0 {
			c.breakdown(siteRho, "rᵀM⁻¹r = %v at outer iteration %d", rho0, k)
			break
		}
		if c.done(c.critValue(x, rho0, rr)) || c.blocksSpent(k) {
			break
		}

		// Basis: W⁽ᵏ⁾ spans K_{s+1}(AM⁻¹, r), V⁽ᵏ⁾ = M⁻¹W⁽ᵏ⁾ (full width):
		// s MVs + s preconditioner applications (u⁽ˢᵏ⁾ is in hand).
		if err := c.powers(params, r, u, wBlock, vBlock); err != nil {
			c.breakdown(siteMPK, "matrix powers kernel: %v", err)
			break
		}

		// Gram matrix: the single global reduction.
		gm := dense.FromRowMajor(dim, dim, c.blockReduce(rr, c.gramLocal(uv, rw))[:dim*dim])

		// Change-of-basis map T: AM⁻¹·[R⁽ᵏ⁻¹⁾, W⁽ᵏ⁾] = [R⁽ᵏ⁻¹⁾, W⁽ᵏ⁾]·T.
		t := dense.NewMat(dim, dim)
		for i := 0; i <= s; i++ {
			for j := 0; j < s; j++ {
				t.Set(s+i, s+j, bMat.At(i, j))
			}
		}
		if k > 0 {
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
		if k > 0 {
			gPrev[s-1] = 1
		}

		broke := false
		for j := 0; j < s; j++ {
			matVec(t, g, d)
			mu := quadForm(gm, g, tmp)
			nu := bilinear(gm, g, d, tmp)
			if !finite(mu, nu) || nu <= 0 || mu < 0 {
				c.breakdown(siteCurv, "μ=%v ν=%v at iteration %d", mu, nu, globalStep)
				broke = true
				break
			}
			gamma := mu / nu
			if globalStep > 0 {
				den := 1 - (gamma/gammaPrev)*(mu/muPrev)*(1/rhoPrev)
				if den == 0 || !finite(den) {
					c.breakdown(siteRecur, "ρ recurrence denominator %v at iteration %d", den, globalStep)
					broke = true
					break
				}
				rho = 1 / den
			}

			// Record this step's residual pair for the next outer basis.
			c.k.Copy(rNew.Col(j), r)
			c.k.Copy(uNew.Col(j), u)
			gammaOld[j], rhoOld[j] = gamma, rho

			// w = A·u and v = M⁻¹A·u, gathered without communication.
			c.blockMulVec(w, rw, d)
			c.blockMulVec(v, uv, d)

			// Three-term BLAS1 updates.
			c.threeTermUpdate(xNext, rho, x, -gamma, u, xPrev)
			c.threeTermUpdate(rNext, rho, r, gamma, w, rPrev)
			c.threeTermUpdate(uNext, rho, u, gamma, v, uPrev)
			xPrev, x, xNext = x, xNext, xPrev
			rPrev, r, rNext = r, rNext, rPrev
			uPrev, u, uNext = u, uNext, uPrev

			// Coefficient recurrence (O(s), negligible cost).
			for i := range gNext {
				gNext[i] = rho*(g[i]-gamma*d[i]) + (1-rho)*gPrev[i]
			}
			gPrev, g, gNext = g, gNext, gPrev

			gammaPrev, muPrev, rhoPrev = gamma, mu, rho
			globalStep++
		}

		c.k.CopyBlock(rOld, rNew)
		c.k.CopyBlock(uOld, uNew)
		stats.OuterIterations = k + 1
		stats.Iterations = globalStep
		if broke {
			break
		}
	}
	return x, nil
}
