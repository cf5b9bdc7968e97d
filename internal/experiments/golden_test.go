package experiments

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
)

// table2Golden is the Table 2 subset checked against the committed
// table2_output.txt. It covers each verdict the table supports: rows where
// the monomial basis fails and Chebyshev converges, rows where CA-PCG and
// sPCG differ, rows where PCG itself fails, and G3_circuit's degenerate row.
var table2Golden = []string{
	"2cubes_sphere", "thermomech_TC", "cfd2", "Dubcova3", "G2_circuit",
	"thermomech_dM", "offshore", "pwtk", "G3_circuit",
}

// table2Regenerate is the command that wrote table2_output.txt.
const table2Regenerate = "go run ./cmd/spcgbench table2 -scale 64 -maxiters 3000 > table2_output.txt"

// TestTable2Golden runs the subset with the committed file's settings and
// compares every printed row with that matrix's line in table2_output.txt,
// cell by cell as text (the column padding depends on which rows are
// printed). The solves are deterministic at any worker count, so a mismatch
// means a change moved Table 2's bits, and the file must be regenerated in
// the same change.
func TestTable2Golden(t *testing.T) {
	raw, err := os.ReadFile("../../table2_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			golden[f[0]] = strings.Join(f, " ")
		}
	}
	// One goroutine per row: the rows are independent, and their bits do not
	// depend on who shares the kernel pool, so pwtk's 3000-iteration PCG runs
	// beside the rest.
	rows := make([]Table2Row, len(table2Golden))
	errs := make([]error, len(table2Golden))
	var wg sync.WaitGroup
	for i, name := range table2Golden {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r []Table2Row
			if r, errs[i] = RunTable2(Config{Scale: 64, MaxIterations: 3000}, subset(name)); errs[i] == nil {
				rows[i] = r[0]
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows, 10)
	lines := strings.Split(buf.String(), "\n")[1 : 1+len(rows)] // below the header
	for i, line := range lines {
		got := strings.Join(strings.Fields(line), " ")
		if want, ok := golden[table2Golden[i]]; !ok || got != want {
			t.Errorf("%s:\n got  %s\n file %s", table2Golden[i], got, want)
		}
	}
	if t.Failed() {
		t.Logf("if the change is meant to move Table 2, regenerate the file from the repository root:\n  %s", table2Regenerate)
	}
}
