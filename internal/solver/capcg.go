package solver

import (
	"spcg/internal/dense"
	"spcg/internal/mpk"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// CAPCG solves A·x = b with Toledo's communication-avoiding PCG (paper
// Algorithm 3). Each outer iteration builds the two-space basis
//
//	Y = [Q | R̂]   span(Q) = K_{s+1}(AM⁻¹, q),  span(R̂) = K_s(AM⁻¹, r)
//	Z = M⁻¹·Y = [P | U]
//
// computes the (2s+1)² Gram matrix G = ZᵀY with a single global reduction,
// and runs s exact PCG steps on (2s+1)-vectors in the changed basis, using
// the block change-of-basis matrix B to apply A without communication. The
// full vectors are recovered at the end of the outer iteration.
//
// CA-PCG is the most robust s-step method in the paper's Table 2, but it
// needs 2s−1 matrix-vector products and preconditioner applications per s
// steps (vs. s for PCG/sPCG/CA-PCG3), which Table 3 and Figure 1 show makes
// it slower than standard PCG even with a cheap Jacobi preconditioner.
func CAPCG(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return runLocal(capcg, a, m, b, opts)
}

func capcg(c *ctx) ([]float64, error) {
	params, err := c.resolveBasis()
	if err != nil {
		return nil, err
	}
	n, s := c.n, c.opts.S
	x, r := c.x, c.residual0(make([]float64, n))

	dim := 2*s + 1
	u := make([]float64, n)
	q := make([]float64, n)
	p := make([]float64, n)

	// Basis blocks: Y = [Q | R̂], Z = [Pz | Uz] (full-width preconditioned).
	qBlock := vec.NewBlock(n, s+1)
	pBlock := vec.NewBlock(n, s+1)
	rBlock := vec.NewBlock(n, s)
	uBlock := vec.NewBlock(n, s)
	y := &vec.Block{N: n, Cols: append(append([][]float64{}, qBlock.Cols...), rBlock.Cols...)}
	z := &vec.Block{N: n, Cols: append(append([][]float64{}, pBlock.Cols...), uBlock.Cols...)}

	// The bases' chains: Q from (q, p), R̂ from (r, u). At s = 1 R̂ is [r] and
	// its U is [u], a copy rather than a kernel call.
	chains := []mpk.Chain{{W: q, U0: p, S: qBlock, U: pBlock}, {W: r, U0: u, S: rBlock, U: uBlock}}
	var seedDst, seedSrc *vec.Block
	if s < 2 {
		chains = chains[:1]
		seedDst = &vec.Block{N: n, Cols: [][]float64{rBlock.Col(0), uBlock.Col(0)}}
		seedSrc = &vec.Block{N: n, Cols: [][]float64{r, u}}
	}

	// Change-of-basis matrix for the inner iterations: A·Z̲ = Y·B.
	bMat := params.CAPCGChangeOfBasis(s)

	// u⁰ = M⁻¹r⁰, q⁰ = r⁰, p⁰ = u⁰; detection (opt-in) resumes a rollback
	// the same way.
	c.applyM(u, r)
	copy(q, r)
	copy(p, u)
	if c.opts.DetectEvery > 0 {
		c.arm(x, r, func(x0, r0 []float64) {
			copy(x, x0)
			copy(r, r0)
			c.applyM(u, r)
			copy(q, r)
			copy(p, u)
		})
	}

	// Small coefficient vectors in the changed basis.
	pc := make([]float64, dim)
	rc := make([]float64, dim)
	xc := make([]float64, dim)
	bp := make([]float64, dim)
	gv := make([]float64, dim)

blocks:
	for k := 0; ; k++ {
		if c.cancelled() {
			return x, ErrCancelled
		}
		// Convergence check at the block boundary (rᵀu is an entry of G).
		rho, rr := c.residualDots(r, u, true)
		if !finite(rho) || rho < 0 {
			if c.recovered(siteRho, "rᵀM⁻¹r = %v at outer iteration %d", rho, k) {
				continue
			}
			break
		}
		if _, resumed, stop := c.boundary(k, x, r, rho, rr); resumed {
			continue
		} else if stop || c.blocksSpent(k) {
			break
		}

		// Basis generation: Q from q (degree s, s MVs + s precs since p⁰ is
		// known), R̂ from r (degree s−1, s−1 MVs + s−1 precs since u⁰ is
		// known). Total 2s−1 of each, matching Table 1; the two chains share
		// their first s−1 passes over the matrix (on ranks, their halo
		// exchanges too), so the outer iteration reads it s times.
		if seedDst != nil {
			c.copyBlock(seedDst, seedSrc)
		}
		if err := c.powers(params, chains...); err != nil {
			if c.recovered(siteMPK, "basis MPK: %v", err) {
				continue
			}
			break
		}

		// Gram matrix G = ZᵀY: the single global reduction of the outer
		// iteration (payload (2s+1)², +1 when the 2-norm criterion is fused).
		g := dense.FromRowMajor(dim, dim, c.blockReduce(rr, c.gramLocal(z, y))[:dim*dim])

		// Inner loop on (2s+1)-vectors: exact PCG arithmetic in the basis.
		for i := range pc {
			pc[i], rc[i], xc[i] = 0, 0, 0
		}
		pc[0] = 1
		rc[s+1] = 1
		rGr := quadForm(g, rc, gv) // r'ᵀGr'
		broke := false
		for j := 0; j < s; j++ {
			matVec(bMat, pc, bp) // B·p'
			den := bilinear(g, pc, bp, gv)
			if !finite(den, rGr) || den <= 0 {
				if c.recovered(siteCurv, "p'ᵀGBp' = %v at iteration %d", den, k*s+j) {
					continue blocks
				}
				broke = true
				break
			}
			alpha := rGr / den
			for i := range xc {
				xc[i] += alpha * pc[i]
				rc[i] -= alpha * bp[i]
			}
			rGrNew := quadForm(g, rc, gv)
			if !finite(rGrNew) || rGrNew < 0 {
				if c.recovered(siteRho, "r'ᵀGr' = %v at iteration %d", rGrNew, k*s+j) {
					continue blocks
				}
				broke = true
				break
			}
			beta := rGrNew / rGr
			rGr = rGrNew
			for i := range pc {
				pc[i] = rc[i] + beta*pc[i]
			}
		}
		// O(s³) scalar work per outer iteration, negligible next to O(sn):
		// charged as one lump.
		c.tr.VectorOp(float64(8*s*dim*dim), float64(8*s*dim*dim))

		// Recovery: q = Y·p', r = Y·r', p = Z·p', u = Z·r', x += Z·x'
		// (the O(sn) cost the paper credits CA-PCG's local work advantage to).
		c.blockMulVec(q, y, pc)
		c.blockMulVec(r, y, rc)
		c.blockMulVec(p, z, pc)
		c.blockMulVec(u, z, rc)
		c.blockMulVecAdd(x, 1, z, xc)

		c.counted(k+1, s)
		if broke {
			break
		}
	}
	return x, nil
}

// matVec computes dst = M·v for a small dense matrix.
func matVec(m *dense.Mat, v, dst []float64) {
	for i := 0; i < m.R; i++ {
		var sum float64
		row := m.Data[i*m.C : (i+1)*m.C]
		for j, vj := range v {
			sum += row[j] * vj
		}
		dst[i] = sum
	}
}

// quadForm computes vᵀGv using tmp as scratch.
func quadForm(g *dense.Mat, v, tmp []float64) float64 {
	matVec(g, v, tmp)
	var sum float64
	for i, vi := range v {
		sum += vi * tmp[i]
	}
	return sum
}

// bilinear computes aᵀGb using tmp as scratch.
func bilinear(g *dense.Mat, a, b, tmp []float64) float64 {
	matVec(g, b, tmp)
	var sum float64
	for i, ai := range a {
		sum += ai * tmp[i]
	}
	return sum
}
