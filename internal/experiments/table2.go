package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"spcg/internal/basis"
	"spcg/internal/solver"
	"spcg/internal/suite"
)

// Table2Row is one matrix's result in the paper's Table 2 layout: iteration
// counts to reach ‖b−Ax‖₂/‖b−Ax⁰‖₂ < tol per solver, with monomial and
// Chebyshev basis variants ("mon/cheb"). Zero means no convergence.
type Table2Row struct {
	Name      string
	Rows, NNZ int // built (scaled) sizes
	PCG       int
	PCGOk     bool
	// [0] = monomial, [1] = Chebyshev.
	SPCG, CAPCG, CAPCG3       [2]int
	SPCGOk, CAPCGOk, CAPCG3Ok [2]bool
	Paper                     suite.PaperIters
}

// RunTable2 reproduces Table 2 over the given problems (paper: all 40, one
// node, s=10, Chebyshev preconditioner of degree 3, true-residual criterion,
// monomial and Chebyshev bases).
func RunTable2(cfg Config, problems []suite.Problem) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	return forEachRow(problems, func(p suite.Problem) (Table2Row, error) {
		a := p.Build(cfg.Scale)
		st, err := newSetup(a, "chebyshev", cfg.PrecondDegree)
		if err != nil {
			return Table2Row{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		row := Table2Row{Name: p.Name, Rows: a.Dim(), NNZ: a.NNZ(), Paper: p.Paper}
		row.PCG, row.PCGOk, _ = runOne(solver.PCG, st, basisOpts(cfg, basis.Monomial, solver.TrueResidual2Norm))
		for bi, bt := range []basis.Type{basis.Monomial, basis.Chebyshev} {
			opts := basisOpts(cfg, bt, solver.TrueResidual2Norm)
			row.SPCG[bi], row.SPCGOk[bi], _ = runOne(solver.SPCG, st, opts)
			row.CAPCG[bi], row.CAPCGOk[bi], _ = runOne(solver.CAPCG, st, opts)
			row.CAPCG3[bi], row.CAPCG3Ok[bi], _ = runOne(solver.CAPCG3, st, opts)
		}
		cfg.progressf("table2: %s done (rows=%d, PCG=%s)", p.Name, row.Rows, hyph(row.PCG, row.PCGOk))
		return row, nil
	})
}

// Table2Summary aggregates convergence counts like the paper's §5.2 prose
// ("CA-PCG converged for 23 out of 40 matrices with the monomial basis...").
type Table2Summary struct {
	Total                                                int
	SPCGMon, SPCGCheb                                    int
	CAPCGMon, CAPCGCheb                                  int
	CAPCG3Mon, CAPCG3Cheb                                int
	SPCGChebNoDelay, CAPCGChebNoDelay, CAPCG3ChebNoDelay int
}

// Summarize counts convergences and no-significant-delay convergences
// (< 20% iteration overhead or < s extra iterations vs PCG, the paper's
// bold-face rule).
func Summarize(rows []Table2Row, s int) Table2Summary {
	sum := Table2Summary{Total: len(rows)}
	noDelay := func(iters, pcg int) bool {
		return iters <= pcg+pcg/5 || iters <= pcg+s
	}
	for _, r := range rows {
		if r.SPCGOk[0] {
			sum.SPCGMon++
		}
		if r.CAPCGOk[0] {
			sum.CAPCGMon++
		}
		if r.CAPCG3Ok[0] {
			sum.CAPCG3Mon++
		}
		if r.SPCGOk[1] {
			sum.SPCGCheb++
			if noDelay(r.SPCG[1], r.PCG) {
				sum.SPCGChebNoDelay++
			}
		}
		if r.CAPCGOk[1] {
			sum.CAPCGCheb++
			if noDelay(r.CAPCG[1], r.PCG) {
				sum.CAPCGChebNoDelay++
			}
		}
		if r.CAPCG3Ok[1] {
			sum.CAPCG3Cheb++
			if noDelay(r.CAPCG3[1], r.PCG) {
				sum.CAPCG3ChebNoDelay++
			}
		}
	}
	return sum
}

// RenderTable2 writes the rows in the paper's layout ("mon/cheb" per
// s-step solver) with the paper's own numbers alongside.
func RenderTable2(w io.Writer, rows []Table2Row, s int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Matrix\tRows\tNNZ\tPCG\tsPCG\tCA-PCG\tCA-PCG3\tpaper:PCG\tpaper:sPCG\tpaper:CA-PCG\tpaper:CA-PCG3")
	pair := func(v [2]int, ok [2]bool) string {
		return hyph(v[0], ok[0]) + "/" + hyph(v[1], ok[1])
	}
	paperPair := func(mon, cheb int) string {
		return hyph(mon, mon > 0) + "/" + hyph(cheb, cheb > 0)
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%d\t%s\t%s\t%s\n",
			r.Name, r.Rows, r.NNZ,
			hyph(r.PCG, r.PCGOk),
			pair(r.SPCG, r.SPCGOk), pair(r.CAPCG, r.CAPCGOk), pair(r.CAPCG3, r.CAPCG3Ok),
			r.Paper.PCG,
			paperPair(r.Paper.SPCGMon, r.Paper.SPCGCheb),
			paperPair(r.Paper.CAPCGMon, r.Paper.CAPCGCheb),
			paperPair(r.Paper.CAPCG3Mon, r.Paper.CAPCG3Cheb))
	}
	tw.Flush()
	sum := Summarize(rows, s)
	fmt.Fprintf(w, "\nConverged (of %d): monomial sPCG %d, CA-PCG %d, CA-PCG3 %d | Chebyshev sPCG %d, CA-PCG %d, CA-PCG3 %d\n",
		sum.Total, sum.SPCGMon, sum.CAPCGMon, sum.CAPCG3Mon, sum.SPCGCheb, sum.CAPCGCheb, sum.CAPCG3Cheb)
	fmt.Fprintf(w, "Chebyshev without significant delay: sPCG %d, CA-PCG %d, CA-PCG3 %d\n",
		sum.SPCGChebNoDelay, sum.CAPCGChebNoDelay, sum.CAPCG3ChebNoDelay)
}
