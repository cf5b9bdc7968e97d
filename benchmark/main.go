// Command benchmark is the repository's one benchmark: four workloads that
// between them exercise every layer from the vector kernels to the gateway,
// five end-to-end metrics that later changes are held to, and a traced run
// that reports what each layer contributed. BENCHMARK.json at the repository
// root names the workloads and metrics; README.md in this directory says why
// each exists and how they should move together.
//
//	go run ./benchmark --workload W --seed S --seconds N --trace 0|1
//	go run ./benchmark all   [-seed S] [-seconds N]
//	go run ./benchmark aa    [-runs R] [-seed S] [-seconds N]
//	go run ./benchmark audit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	sub := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	var err error
	switch sub {
	case "run":
		err = cmdRun(args, stdout, stderr)
	case "all":
		err = cmdAll(args, stdout, stderr)
	case "aa":
		err = cmdAA(args, stdout, stderr)
	case "audit":
		err = cmdAudit(args, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "benchmark: unknown subcommand %q (run, all, aa, audit)\n", sub)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runFlags are the arguments of one run, as the driver passes them.
type runFlags struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
}

func (f *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&f.seed, "seed", 1, "seed of the right-hand sides and the request schedule")
	fs.Float64Var(&f.seconds, "seconds", 20, "length of the timed section")
	fs.IntVar(&f.trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	fs.BoolVar(&f.smoke, "smoke", false, "tiny inputs, for the package's own test")
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// cmdRun runs one workload in this process and prints its metrics; the last
// line of standard output is the result object the driver reads.
func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f runFlags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(f.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", f.workload, strings.Join(workloadNames(), ", "))
	}
	if f.seconds <= 0 || (f.trace != 0 && f.trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(benchProcs)
	env := readEnv()
	if err := printJSONLine(stdout, map[string]any{"env": env, "workload": w.name, "seed": f.seed, "seconds": f.seconds, "trace": f.trace}); err != nil {
		return err
	}
	var res result
	var err error
	if f.trace == 1 {
		res, err = runTraced(w, f, env, stderr)
	} else {
		res, err = runUntraced(w, f.seed, f.seconds, f.smoke)
	}
	if err != nil {
		return err
	}
	return printResult(stdout, res)
}

func printJSONLine(w io.Writer, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// resultLine is the object a run prints as its last line, and what `all` and
// `aa` read back from the runs they start.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes one "workload metric value unit n=samples" line per
// metric, then the result object as the last line.
func printResult(w io.Writer, res result) error {
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", res.workload, m.name, m.value, m.unit, m.n)
		line.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	for _, m := range res.notes {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", res.workload, m.name, m.value, m.unit, m.n)
	}
	fmt.Fprintf(w, "%s failed_share %.6g ratio n=%d\n", res.workload, ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	return printJSONLine(w, line)
}
