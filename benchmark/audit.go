package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"spcg/internal/service"
	"spcg/internal/solver"
	"spcg/internal/spmd"
)

// cmdAudit runs every candidate configuration of the four schedules once and
// prints whether it converges to the benchmark's accuracy, with iterations
// and time. Only configurations that pass are in the schedules; README.md
// lists the ones this audit excluded. It is the check to repeat before a
// schedule is changed.
func cmdAudit(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark audit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	smoke := fs.Bool("smoke", false, "tiny inputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(benchProcs)
	row := func(config string, ok bool, iters int, resid float64, d time.Duration, note string) {
		verdict := "admitted"
		if !ok {
			verdict = "EXCLUDED"
		}
		fmt.Fprintf(stdout, "| %s | %s | %d | %.2e | %.1f | %s |\n", config, verdict, iters, resid, float64(d)/1e6, note)
	}
	header := func(title string) {
		fmt.Fprintf(stdout, "\n### %s\n\n| configuration | verdict | iterations | residual | ms | note |\n|---|---|---|---|---|---|\n", title)
	}

	header("solve_paper: " + paperMatrix + ", Jacobi, s = 10, Chebyshev, tol 1e-8")
	prob, err := newPaperProblem(*smoke)
	if err != nil {
		return err
	}
	b := randomRHS(prob.a.Dim(), 1)
	scratch := make([]float64, prob.a.Dim())
	var ref []float64
	for _, name := range append(append([]string(nil), paperMethods...), "spcgmon", "adaptive") {
		fn, _ := solver.ByName(name)
		t0 := time.Now()
		x, st, err := fn(prob.a, prob.m, b, prob.options())
		d := time.Since(t0)
		note := ""
		if err != nil {
			note = err.Error()
		} else if st.Breakdown != nil {
			note = st.Breakdown.Error()
		}
		ok := err == nil && solutionOK(prob.a, b, x, ref, scratch, st.Converged)
		if name == "pcg" {
			ref = x
		}
		row(name, ok, st.Iterations, relResidual(prob.a, b, x, scratch), d, note)
	}

	header(fmt.Sprintf("spmd_sync: %d ranks, Jacobi, s = 10, Chebyshev, tol 1e-8", spmdRanks))
	grids, err := newSpmdGrids(*smoke)
	if err != nil {
		return err
	}
	for _, g := range grids {
		b := randomRHS(g.a.Dim(), 1)
		scratch := make([]float64, g.a.Dim())
		var ref []float64
		calls := []struct {
			name string
			call func() (*spmd.Result, error)
		}{
			{"PCGJacobi", func() (*spmd.Result, error) { return spmd.PCGJacobi(g.a, b, spmdRanks, solveTol, 0) }},
			{"SPCGJacobi", func() (*spmd.Result, error) {
				return spmd.SPCGJacobi(g.a, b, spmdRanks, paperS, g.params, solveTol, 12000)
			}},
			{"CAPCGJacobi", func() (*spmd.Result, error) {
				return spmd.CAPCGJacobi(g.a, b, spmdRanks, paperS, g.params, solveTol, 0)
			}},
		}
		for _, c := range calls {
			t0 := time.Now()
			res, err := c.call()
			d := time.Since(t0)
			if err != nil {
				row(c.name+" @"+g.name, false, 0, 1, d, err.Error())
				continue
			}
			ok := solutionOK(g.a, b, res.X, ref, scratch, res.Converged)
			if ref == nil {
				ref = res.X
			}
			row(c.name+" @"+g.name, ok, res.Iterations, relResidual(g.a, b, res.X, scratch), d, fmt.Sprintf("%d allreduces", res.Allreduces))
		}
	}

	serveRow := func(st *stack, req service.SolveRequest) {
		config := fmt.Sprintf("%s %s", req.Matrix, req.Method)
		if req.NoBatch {
			config += "+no_batch"
		}
		req.NoBatch = true // one request at a time: nothing to coalesce with
		r := postSolve(st.httpc[0], st.gwURL, req)
		if req.S > 0 {
			config += fmt.Sprintf(" s=%d", req.S)
		}
		if req.Precond != "" {
			config += " " + req.Precond
		}
		res := r.status.Result
		if res == nil {
			row(config, false, 0, 1, r.dur, fmt.Sprintf("HTTP %d %v", r.code, r.err))
			return
		}
		note := res.Method + " " + res.Format
		if res.Breakdown != "" {
			note += " " + res.Breakdown
		}
		row(config, r.ok(), res.Iterations, res.TrueRelResidual, r.dur, note)
	}

	header("serve_warm: default stack, tuned and warmed")
	warm, err := setupServeWarm(1, *smoke)
	if err != nil {
		return err
	}
	ws := warm.(*serveInst)
	seen := map[string]bool{}
	for _, req := range ws.schedule[:ws.block] {
		key := fmt.Sprint(req.Matrix, req.Method, req.NoBatch)
		if !seen[key] {
			seen[key] = true
			serveRow(ws.stack, req)
		}
	}
	ws.close()

	header(fmt.Sprintf("serve_churn: CacheSize %d, TuneEntries %d", churnCaches, churnCaches))
	st, err := startStack(service.Config{CacheSize: churnCaches, TuneEntries: churnCaches})
	if err != nil {
		return err
	}
	defer st.close()
	for _, m := range churnMatrices(*smoke) {
		for _, c := range churnCombos(false) { // every pair, including the ones the schedule leaves out
			req := c.class.request(m.name)
			req.Precond = c.precond
			serveRow(st, req)
		}
	}
	return nil
}
