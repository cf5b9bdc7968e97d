package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 0 {
			t.Errorf("percentile(p=%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// The p90 of 100 samples leaves exactly ten beyond it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 90); math.Abs(got-90) > 0 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if math.Abs(q1-1.5) > 1e-12 || math.Abs(q3-12) > 1e-12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g, %g, want 1.5, 12", q1, q3)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "solve", Start: 10, End: 70, Parent: 0},
		{Name: "check", Start: 60, End: 90, Parent: 0},    // overlaps solve by 10
		{Name: "spmv", Start: 20, End: 30, Parent: 1},     // inside solve
		{Name: "gram", Start: 65, End: 80, Parent: 1},     // sticks out of solve by 10
		{Name: "stray", Start: 200, End: 300, Parent: 17}, // parent out of range: a root
	}
	want := []int64{
		100 - (60 + 20), // solve covers 10..70, check adds 70..90
		60 - (10 + 5),   // spmv 10, gram clipped to 65..70
		30, 10, 15, 100,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	totals := totalsByName(spans)
	if tot := totals["solve"]; tot.Count != 1 || math.Abs(tot.MS-60e-6) > 1e-12 || math.Abs(tot.SelfMS-45e-6) > 1e-12 {
		t.Errorf("totals of solve = %+v", tot)
	}
}

func TestTracerNilAndNesting(t *testing.T) {
	var none *tracer
	id := none.begin("x", -1, 0)
	none.end(id)
	none.add("y", id, 0, time.Now(), time.Millisecond)
	if id != -1 || none.snapshot() != nil {
		t.Fatalf("nil tracer recorded something")
	}
	tr := newTracer()
	op := tr.begin("op", -1, 7)
	tr.end(tr.begin("child", op, 7))
	tr.end(op)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Op != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
}

// A deliberately wrong x must count as a failed op, whatever the solver said.
func TestResidualCheckRejectsWrongSolution(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randomRHS(a.Dim(), 3)
	x, st, err := solver.PCG(a, m, b, solver.Options{Tol: solveTol})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, a.Dim())
	if !solutionOK(a, b, x, nil, scratch, st.Converged) || !solutionOK(a, b, x, x, scratch, true) {
		t.Fatalf("a converged PCG solution was rejected (residual %g)", relResidual(a, b, x, scratch))
	}
	wrong := append([]float64(nil), x...)
	wrong[5] += 1e-3
	nan := append([]float64(nil), x...)
	nan[0] = math.NaN()
	for name, bad := range map[string][]float64{"perturbed": wrong, "nan": nan, "short": x[:10], "nil": nil} {
		if solutionOK(a, b, bad, nil, scratch, true) {
			t.Errorf("%s solution passed the residual check", name)
		}
	}
	if solutionOK(a, b, x, nil, scratch, false) {
		t.Errorf("a solve that did not converge passed")
	}
	if solutionOK(a, b, x, wrong, scratch, true) {
		t.Errorf("a solution 1e-3 away from its reference passed the agreement check")
	}
}

func TestSectionEndsOnBlockBoundary(t *testing.T) {
	for _, clients := range []int{1, 2} {
		inst := &countingInst{nc: clients, block: 7, ran: map[int]bool{}}
		first := runSection(inst, 14, 0, nil)
		if len(first.ops) != 7 || first.next != 21 {
			t.Errorf("%d clients: a zero-length section ran %d ops to %d, want one block", clients, len(first.ops), first.next)
		}
		sec := runSection(inst, first.next, 20e6, nil) // 20 ms
		if len(sec.ops) == 0 || len(sec.ops)%7 != 0 || sec.next != 21+len(sec.ops) {
			t.Errorf("%d clients: section ran %d ops to %d", clients, len(sec.ops), sec.next)
		}
		for i := 14; i < sec.next; i++ {
			if !inst.ran[i] {
				t.Errorf("%d clients: op %d never ran", clients, i)
			}
		}
	}
}

// countingInst records which schedule indices ran.
type countingInst struct {
	nc, block int
	mu        sync.Mutex
	ran       map[int]bool
}

func (c *countingInst) clients() int  { return c.nc }
func (c *countingInst) blockLen() int { return c.block }
func (c *countingInst) close()        {}
func (c *countingInst) do(i, _ int, _ *tracer) opRecord {
	c.mu.Lock()
	c.ran[i] = true
	c.mu.Unlock()
	return opRecord{kind: "count", dur: 1000, ok: true}
}

// TestSmokeRunsMatchSpec runs all four workloads at smoke scale, untraced and
// traced, and holds the emitted names and units to BENCHMARK.json in both
// directions, and BENCHMARK.json to the contract's limits.
func TestSmokeRunsMatchSpec(t *testing.T) {
	specPath, err := filepath.Abs(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	used := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}
	want := [2]map[string]string{{}, {}} // [trace] name -> unit
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check("end-to-end", m.Name)
		want[0][m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check("per-layer", m.Name)
		want[1][m.Name] = m.Unit
		if (m.Better != "lower" && m.Better != "higher") || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}

	// trace.json and the tuner probe's scratch directory land in the
	// working directory; keep them out of the source tree.
	back, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(back); err != nil {
			t.Error(err)
		}
	}()

	for i, w := range spec.Workloads {
		check("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		for trace := 0; trace <= 1; trace++ {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.2", "--trace", []string{"0", "1"}[trace], "-smoke"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not JSON: %v", w.Name, trace, err)
			}
			if len(res) != 4 {
				t.Errorf("%s trace=%d: result has %d keys, want correct, attempted, failed, metrics", w.Name, trace, len(res))
			}
			var got resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, got.Correct, got.Attempted, got.Failed, stderr.String())
			}
			for name, m := range got.Metrics {
				if unit, ok := want[trace][name]; !ok {
					t.Errorf("%s trace=%d emits %s, which BENCHMARK.json does not name", w.Name, trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%d: %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: %s = %v", w.Name, trace, name, m.Value)
				}
			}
			for name := range want[trace] {
				if _, ok := got.Metrics[name]; !ok {
					t.Errorf("%s trace=%d does not emit %s, which BENCHMARK.json names", w.Name, trace, name)
				}
			}
			if trace == 1 {
				raw, err := os.ReadFile(traceFile)
				if err != nil {
					t.Fatalf("%s: traced run wrote no %s: %v", w.Name, traceFile, err)
				}
				var doc traceDoc
				if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 || doc.Env.GOMAXPROCS != benchProcs {
					t.Errorf("%s: %s is not a stamped trace with spans: %v", w.Name, traceFile, err)
				}
			}
		}
	}
}
