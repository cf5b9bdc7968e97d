package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// runChild runs one workload in a process of its own, so memory and caches
// are per run, and waits for it. It returns the lines the child printed and
// its decoded result line.
func runChild(stderr io.Writer, workload string, seed int64, seconds float64, trace int) ([]string, resultLine, error) {
	var res resultLine
	self, err := os.Executable()
	if err != nil {
		return nil, res, err
	}
	cmd := exec.Command(self, "run",
		"--workload", workload,
		"--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, res, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return lines, res, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return lines, res, nil
}

// compareFlags are shared by the subcommands that start runs.
type compareFlags struct {
	seed    int64
	seconds float64
}

func (f *compareFlags) register(fs *flag.FlagSet, spec *benchSpec) {
	fs.Int64Var(&f.seed, "seed", 1, "seed of the first run")
	fs.Float64Var(&f.seconds, "seconds", float64(spec.RunSeconds), "length of each timed section")
}

// cmdAll runs every workload untraced and traced, one process each, and
// prints every metric as "workload metric value unit n=samples". Any failed
// op or probe makes it fail.
func cmdAll(args []string, stdout, stderr io.Writer) error {
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("benchmark all", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f compareFlags
	f.register(fs, spec)
	if err := fs.Parse(args); err != nil {
		return err
	}
	incorrect := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			lines, res, err := runChild(stderr, w.name, f.seed, f.seconds, trace)
			if err != nil {
				return err
			}
			if trace == 0 {
				fmt.Fprintln(stdout, lines[0]) // the env stamp
			}
			for _, line := range lines[1 : len(lines)-1] {
				fmt.Fprintln(stdout, line)
			}
			if !res.Correct {
				incorrect++
				fmt.Fprintf(stdout, "%s trace=%d INCORRECT: %d of %d failed\n", w.name, trace, res.Failed, res.Attempted)
			}
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs reported failed ops", incorrect)
	}
	return nil
}

// cmdAA runs two sets of runs of this one build, alternating workloads, and
// prints for every end-to-end metric and workload both medians, how much
// worse the second is than the first, and pass or fail against the metric's
// bound — the steadiness the bounds rest on. Each set's spread is printed
// beside them; from a handful of runs it is a rough figure.
func cmdAA(args []string, stdout, stderr io.Writer) error {
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("benchmark aa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f compareFlags
	f.register(fs, spec)
	runs := fs.Int("runs", 5, "runs per set and workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// values[set][workload][metric] lists one value per run.
	var values [2]map[string]map[string][]float64
	var envLine string
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for r := 0; r < *runs; r++ {
			for _, w := range workloads {
				lines, res, err := runChild(stderr, w.name, f.seed+int64(r), f.seconds, 0)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s (seed %d): %d of %d ops failed", w.name, f.seed+int64(r), res.Failed, res.Attempted)
				}
				envLine = lines[0]
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
				fmt.Fprintf(stderr, "set %d run %d %s done\n", set+1, r+1, w.name)
			}
		}
	}

	fmt.Fprintf(stdout, "# A/A: two sets of %d runs of one build\n\n", *runs)
	fmt.Fprintf(stdout, "`go run ./benchmark aa -runs %d -seed %d -seconds %g`; seeds %d..%d in both sets, workloads alternating.\n\n", *runs, f.seed, f.seconds, f.seed, f.seed+int64(*runs)-1)
	fmt.Fprintf(stdout, "Environment of the last run: `%s`\n\n", envLine)
	fmt.Fprintln(stdout, "`worse` is how much worse the second set's median is than the first's, as a share of the first; a pair passes when it stays within the bound. `spread` is the distance between a set's quartiles as a share of its median, as `statistics.quantiles(values, n=4)` gives them; the driver checks it on ten runs, and from fewer it is a rough figure.")
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "| workload | metric | unit | median A | median B | worse | spread A | spread B | bound | |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|---|")
	failures := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := values[0][w.name][m.Name], values[1][w.name][m.Name]
			medA, medB := median(a), median(b)
			worse := ratio(medB-medA, medA)
			if m.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := spread(a), spread(b)
			verdict := "pass"
			if worse > m.Bound {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.name, m.Name, m.Unit, medA, medB, 100*worse, 100*spreadA, 100*spreadB, 100*m.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d metric × workload pairs outside their bound", failures)
	}
	return nil
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}
