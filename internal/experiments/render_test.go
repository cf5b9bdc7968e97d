package experiments

import (
	"bytes"
	"strings"
	"testing"

	"spcg/internal/obs"
	"spcg/internal/perfmodel"
	"spcg/internal/suite"
)

// Render-format pins: cheap synthetic inputs, no solver runs. These keep the
// report layouts stable (EXPERIMENTS.md quotes them verbatim).

func TestRenderTable1Layout(t *testing.T) {
	cost, err := perfmodel.Table1(perfmodel.SPCG, 10)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Table1Row{{Cost: cost, MeasuredMV: 10, MeasuredPrec: 10, MeasuredReductionsPerS: 1}}
	var buf bytes.Buffer
	RenderTable1(&buf, rows, 10)
	out := buf.String()
	for _, want := range []string{"s = 10", "sPCG", "total arb", "756", "1.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestValidateTable1RequiresTimedPhases: a row whose counts match the closed
// forms still fails when its run recorded no timed phases.
func TestValidateTable1RequiresTimedPhases(t *testing.T) {
	cost, err := perfmodel.Table1(perfmodel.SPCG, 10)
	if err != nil {
		t.Fatal(err)
	}
	row := Table1Row{
		Cost:                   cost,
		MeasuredMV:             float64(cost.MVAndPrec),
		MeasuredPrec:           float64(cost.MVAndPrec),
		MeasuredReductionsPerS: float64(perfmodel.GlobalReductionsPerSSteps(perfmodel.SPCG, 10)),
	}
	if err := ValidateTable1([]Table1Row{row}, 10); err == nil || !strings.Contains(err.Error(), "no timed phases") {
		t.Fatalf("row without phases: err = %v, want a no-timed-phases error", err)
	}
	row.phases = obs.Breakdown{TotalSeconds: 1e-3, Phases: []obs.PhaseStat{{Phase: "basis", Count: 1, Seconds: 1e-3}}}
	if err := ValidateTable1([]Table1Row{row}, 10); err != nil {
		t.Fatalf("row with phases: %v", err)
	}
}

func TestRenderTable2HyphenConvention(t *testing.T) {
	row := Table2Row{
		Name: "demo", Rows: 100, NNZ: 500, PCG: 42, PCGOk: true,
		SPCG:   [2]int{0, 50},
		SPCGOk: [2]bool{false, true},
		Paper:  suite.PaperIters{PCG: 40, SPCGCheb: 50},
	}
	var buf bytes.Buffer
	RenderTable2(&buf, []Table2Row{row}, 10)
	out := buf.String()
	if !strings.Contains(out, "-/50") {
		t.Fatalf("monomial failure not rendered as hyphen:\n%s", out)
	}
	if !strings.Contains(out, "Converged (of 1)") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

func TestRenderTable3Hyphens(t *testing.T) {
	rows := []Table3Row{{Name: "m1", ChebPCGTime: 1.5, ChebSPCG: 1.2}}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "1.500s") || !strings.Contains(out, "1.20") {
		t.Fatalf("values not rendered:\n%s", out)
	}
	if strings.Count(out, "-") < 5 { // missing entries render as hyphens
		t.Fatalf("hyphens missing:\n%s", out)
	}
}

func TestRenderFig1Knee(t *testing.T) {
	res := &Fig1Result{
		GridDim:     64,
		NodeCounts:  []int{1, 2},
		PCG1Node:    0.5,
		PCGKneeNode: 2,
		Series: []Fig1Series{
			{Solver: "PCG", Speedup: []float64{1, 1.5}},
			{Solver: "sPCG", S: 10, Speedup: []float64{1.1, 2.0}},
		},
	}
	var buf bytes.Buffer
	RenderFig1(&buf, res)
	out := buf.String()
	for _, want := range []string{"64³", "stops scaling at 2 nodes", "sPCG(s=10)", "2.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSummarizeNoDelayRule(t *testing.T) {
	// The paper's bold rule: < 20% overhead OR < s extra iterations.
	rows := []Table2Row{
		{PCG: 100, PCGOk: true, SPCG: [2]int{0, 115}, SPCGOk: [2]bool{false, true}}, // 15% → no delay
		{PCG: 100, PCGOk: true, SPCG: [2]int{0, 130}, SPCGOk: [2]bool{false, true}}, // 30% & +30 → delayed
		{PCG: 4, PCGOk: true, SPCG: [2]int{0, 10}, SPCGOk: [2]bool{false, true}},    // +6 < s → no delay
	}
	sum := Summarize(rows, 10)
	if sum.SPCGCheb != 3 {
		t.Fatalf("SPCGCheb = %d", sum.SPCGCheb)
	}
	if sum.SPCGChebNoDelay != 2 {
		t.Fatalf("SPCGChebNoDelay = %d, want 2", sum.SPCGChebNoDelay)
	}
}
