// Command spcgbench regenerates the paper's tables and figures:
//
//	spcgbench table1 [-s 10] [-dim 24]
//	spcgbench table2 [-scale 32] [-s 10] [-only name1,name2]
//	spcgbench table3 [-scale 32] [-nodes 4]
//	spcgbench fig1   [-dim 64] [-maxnodes 128] [-svalues 5,10,15]
//	spcgbench ablation
//	spcgbench faults [-dim 20] [-s 6]
//	spcgbench kernels [-sizes 4096,65536,1048576] [-s 8] [-workersweep 1,2,4] [-reps 7] [-out BENCH_kernels.json]
//	spcgbench formats [-scale 8] [-reps 7] [-only name1,name2] [-out BENCH_formats.json]
//	spcgbench trace  [-dim 24] [-s 10]
//	spcgbench tune   [-matrices thermomech_TC,shipsec8] [-scale 100] [-probeiters 40] [-rounds 3] [-reps 3] [-out BENCH_autotune.json]
//	spcgbench gateway [-arms 1,2,4] [-requests 240] [-clients 8] [-wset 24] [-gwcache 8] [-out BENCH_gateway.json]
//
// Scale divides the paper's matrix sizes (1 = full size); see DESIGN.md for
// the experiment-to-module index.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"spcg/internal/dist"
	"spcg/internal/experiments"
	"spcg/internal/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: it parses args, dispatches the subcommand and
// returns the process exit code (0 ok, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	if !knownCommand(cmd) {
		fmt.Fprintf(stderr, "spcgbench: unknown subcommand %q\n", cmd)
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 32, "divide paper matrix sizes by this factor (1 = full size)")
	s := fs.Int("s", 10, "s-step block size")
	nodes := fs.Int("nodes", 4, "virtual node count (table3)")
	dim := fs.Int("dim", 0, "grid dimension (table1: default 24; fig1: default 64, paper 256)")
	maxNodes := fs.Int("maxnodes", 128, "largest node count (fig1)")
	sValuesFlag := fs.String("svalues", "5,10,15", "comma-separated s values (fig1)")
	only := fs.String("only", "", "comma-separated matrix names (table2; default all 40)")
	ranksPerNode := fs.Int("ranks", 128, "ranks per virtual node")
	maxIters := fs.Int("maxiters", 0, "iteration cap (default 12000, the paper's cutoff; scale it with -scale for faster sweeps)")
	sizesFlag := fs.String("sizes", "", "comma-separated vector lengths (kernels; default 4096,65536,1048576)")
	workerSweep := fs.String("workersweep", "", "comma-separated pool sizes (kernels; default 1,2,GOMAXPROCS)")
	reps := fs.Int("reps", 0, "timing repetitions, min reported (kernels: default 7; tune: default 3)")
	out := fs.String("out", "", "also write the result as JSON to this file (kernels, tune)")
	matrices := fs.String("matrices", "", "comma-separated suite matrix names (tune; default thermomech_TC,shipsec8)")
	probeIters := fs.Int("probeiters", 0, "first-round tuning probe iteration cap (tune; default 40)")
	rounds := fs.Int("rounds", 0, "successive-halving rounds (tune; default 3)")
	arms := fs.String("arms", "", "comma-separated backend pool sizes (gateway; default 1,2,4)")
	requests := fs.Int("requests", 0, "timed requests per arm (gateway; default 240)")
	clients := fs.Int("clients", 0, "concurrent clients (gateway; default 8)")
	wset := fs.Int("wset", 0, "distinct-matrix working set (gateway; default 24)")
	gwCache := fs.Int("gwcache", 0, "per-backend cache entries (gateway; default 8, deliberately < -wset)")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "spcgbench %s: unexpected arguments: %v\n", cmd, fs.Args())
		return 2
	}

	machine := dist.DefaultMachine()
	machine.RanksPerNode = *ranksPerNode
	cfg := experiments.Config{Scale: *scale, S: *s, Machine: machine, Progress: stderr, MaxIterations: *maxIters}

	start := time.Now()
	var err error
	switch cmd {
	case "table1":
		d := *dim
		if d == 0 {
			d = 24
		}
		var rows []experiments.Table1Row
		rows, err = experiments.RunTable1(cfg, d)
		if err == nil {
			experiments.RenderTable1(stdout, rows, cfg.S)
			if verr := experiments.ValidateTable1(rows, cfg.S); verr != nil {
				fmt.Fprintf(stdout, "validation: %v\n", verr)
			} else {
				fmt.Fprintln(stdout, "validation: measured counts match the closed forms")
			}
		}
	case "table2":
		problems := suite.All()
		if *only != "" {
			problems = problems[:0]
			for _, name := range strings.Split(*only, ",") {
				p, ok := suite.ByName(strings.TrimSpace(name))
				if !ok {
					fmt.Fprintf(stderr, "unknown matrix %q\n", name)
					return 2
				}
				problems = append(problems, p)
			}
		}
		var rows []experiments.Table2Row
		rows, err = experiments.RunTable2(cfg, problems)
		if err == nil {
			experiments.RenderTable2(stdout, rows, cfg.S)
		}
	case "table3":
		var rows []experiments.Table3Row
		rows, err = experiments.RunTable3(cfg, *nodes)
		if err == nil {
			experiments.RenderTable3(stdout, rows)
		}
	case "fig1":
		d := *dim
		if d == 0 {
			d = 64
		}
		var sValues []int
		for _, tok := range strings.Split(*sValuesFlag, ",") {
			v, perr := strconv.Atoi(strings.TrimSpace(tok))
			if perr != nil || v < 1 {
				fmt.Fprintf(stderr, "bad -svalues entry %q\n", tok)
				return 2
			}
			sValues = append(sValues, v)
		}
		var res *experiments.Fig1Result
		res, err = experiments.RunFig1(cfg, d, *maxNodes, sValues)
		if err == nil {
			experiments.RenderFig1(stdout, res)
		}
	case "predict":
		var rows []experiments.PredictRow
		rows, err = experiments.RunPredict(cfg, *dim, nil)
		if err == nil {
			experiments.RenderPredict(stdout, rows, cfg.S)
		}
	case "ablation":
		var res *experiments.AblationResult
		res, err = experiments.RunAblation(cfg)
		if err == nil {
			experiments.RenderAblation(stdout, res)
		}
	case "faults":
		var res *experiments.FaultsResult
		res, err = experiments.RunFaults(cfg, *dim, nil, nil)
		if err == nil {
			experiments.RenderFaults(stdout, res)
		}
	case "formats":
		var fcfg experiments.FormatsConfig
		// The global -scale / -s defaults are for the table experiments;
		// formats defaults to scale 8 (SpMV must leave cache) and s = 8.
		if *scale != 32 {
			fcfg.Scale = *scale
		}
		if *s != 10 {
			fcfg.S = *s
		}
		fcfg.Reps = *reps
		fcfg.MaxIterations = *maxIters
		if *only != "" {
			for _, name := range strings.Split(*only, ",") {
				fcfg.Only = append(fcfg.Only, strings.TrimSpace(name))
			}
		}
		var res *experiments.FormatsResult
		res, err = experiments.RunFormats(fcfg, stderr)
		if err == nil {
			experiments.RenderFormats(stdout, res)
			if *out != "" {
				var buf []byte
				buf, err = json.MarshalIndent(res, "", "  ")
				if err == nil {
					err = os.WriteFile(*out, append(buf, '\n'), 0o644)
				}
			}
			// The storage engine's acceptance gate: a selector that serves a
			// regressing combo fails the command, not just the report.
			if err == nil {
				err = experiments.ValidateFormats(res)
			}
		}
	case "trace":
		var rows []experiments.TraceRow
		rows, err = experiments.RunTrace(cfg, *dim)
		if err == nil {
			experiments.RenderTrace(stdout, rows, cfg.S)
			// Unlike table1 (informational), a trace mismatch fails the
			// command: it doubles as the instrumentation regression check.
			if err = experiments.ValidateTrace(rows, cfg.S); err == nil {
				fmt.Fprintln(stdout, "validation: measured collectives match the Table 1 closed forms")
			}
		}
	case "tune":
		var acfg experiments.AutotuneConfig
		// The global -scale default (32) is for the table experiments; tune
		// defaults to 100 (~1000-row stand-ins keep the full static sweep fast).
		if *scale != 32 {
			acfg.Scale = *scale
		}
		acfg.Reps = *reps
		acfg.Tune.ProbeIters = *probeIters
		acfg.Tune.Rounds = *rounds
		if *matrices != "" {
			for _, name := range strings.Split(*matrices, ",") {
				acfg.Matrices = append(acfg.Matrices, strings.TrimSpace(name))
			}
		}
		var res *experiments.AutotuneResult
		res, err = experiments.RunAutotune(acfg, stderr)
		if err == nil {
			experiments.RenderAutotune(stdout, res)
			if *out != "" {
				var buf []byte
				buf, err = json.MarshalIndent(res, "", "  ")
				if err == nil {
					err = os.WriteFile(*out, append(buf, '\n'), 0o644)
				}
			}
			// The smoke invariant: a tuner that serves broken configurations
			// fails the command, not just the report.
			if err == nil {
				err = experiments.ValidateAutotune(res)
			}
		}
	case "gateway":
		var gcfg experiments.GatewayBenchConfig
		if gcfg.Arms, err = parseIntList(*arms); err != nil {
			fmt.Fprintf(stderr, "bad -arms: %v\n", err)
			return 2
		}
		gcfg.Requests = *requests
		gcfg.Clients = *clients
		gcfg.Matrices = *wset
		gcfg.CacheSize = *gwCache
		var res *experiments.GatewayResult
		res, err = experiments.RunGateway(gcfg, stderr)
		if err == nil {
			experiments.RenderGateway(stdout, res)
			if *out != "" {
				var buf []byte
				buf, err = json.MarshalIndent(res, "", "  ")
				if err == nil {
					err = os.WriteFile(*out, append(buf, '\n'), 0o644)
				}
			}
			// The scale-out acceptance gate: affinity < 90%, speedup < 2.5×
			// or any lost request fails the command, not just the report.
			if err == nil {
				err = experiments.ValidateGateway(res)
			}
		}
	case "kernels":
		var kcfg experiments.KernelsConfig
		kcfg.Reps = *reps
		// The global -s default (10) is for the table experiments; kernels
		// defaults to 8, the acceptance criterion's block width.
		if *s != 10 {
			kcfg.S = *s
		}
		if kcfg.Sizes, err = parseIntList(*sizesFlag); err != nil {
			fmt.Fprintf(stderr, "bad -sizes: %v\n", err)
			return 2
		}
		if kcfg.Workers, err = parseIntList(*workerSweep); err != nil {
			fmt.Fprintf(stderr, "bad -workersweep: %v\n", err)
			return 2
		}
		var res *experiments.KernelsResult
		res, err = experiments.RunKernels(kcfg, stderr)
		if err == nil {
			experiments.RenderKernels(stdout, res)
			if *out != "" {
				var buf []byte
				buf, err = json.MarshalIndent(res, "", "  ")
				if err == nil {
					err = os.WriteFile(*out, append(buf, '\n'), 0o644)
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "spcgbench %s: %v\n", cmd, err)
		return 1
	}
	fmt.Fprintf(stderr, "[%s completed in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
	return 0
}

// subcommands is the single registry of dispatchable cases, in the order the
// usage line advertises them. The switch in run and this list must agree —
// TestUsageListsEverySubcommand cross-checks them.
var subcommands = []string{
	"table1", "table2", "table3", "fig1", "predict", "ablation",
	"faults", "kernels", "formats", "trace", "tune", "gateway",
}

func knownCommand(cmd string) bool {
	for _, c := range subcommands {
		if c == cmd {
			return true
		}
	}
	return false
}

// parseIntList parses "a,b,c" into positive ints; empty input returns nil
// (the subcommand's defaults apply).
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("entry %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: spcgbench <%s> [flags]\n", strings.Join(subcommands, "|"))
	fmt.Fprintln(w, `Run "spcgbench <cmd> -h" for per-command flags.`)
}
