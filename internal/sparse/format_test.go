package sparse

import (
	"math/rand"
	"testing"
)

// TestChooseFormatSmallKeepsCSR: matrices below the probe threshold skip all
// measurement and keep plain CSR deterministically.
func TestChooseFormatSmallKeepsCSR(t *testing.T) {
	a := Poisson2D(12, 12) // nnz ≪ formatProbeMinNNZ
	choice := ChooseFormat(a)
	if choice.Format != "csr" {
		t.Fatalf("small matrix: got %q, want csr", choice.Format)
	}
	if choice.ProbeCSRNs != 0 {
		t.Fatalf("small matrix must not probe, got %dns", choice.ProbeCSRNs)
	}
}

// TestChooseFormatConsistency: the recorded statistics are coherent with the
// pick. Probed on a grid large enough to take the full path.
func TestChooseFormatConsistency(t *testing.T) {
	a := VarCoeff2D(90, 90, 3, 5) // nnz ≈ 40k ≥ formatProbeMinNNZ
	choice := ChooseFormat(a)
	if choice.Format != "csr" && choice.Format != "sell" {
		t.Fatalf("selector produced unknown format %q", choice.Format)
	}
	if choice.ProbeCSRNs <= 0 || choice.ProbeChosenNs <= 0 {
		t.Fatalf("probe times not recorded: csr=%d chosen=%d", choice.ProbeCSRNs, choice.ProbeChosenNs)
	}
	if choice.Format == "sell" && choice.C <= 0 {
		t.Fatalf("sell choice without slice height: %+v", choice)
	}
}

// TestRowLengthCV pins the statistic on hand-computable structures: a
// constant-row-length matrix has zero variation, a hub row raises it.
func TestRowLengthCV(t *testing.T) {
	if cv := RowLengthCV(Poisson1D(1)); cv != 0 {
		t.Fatalf("single row: cv = %v", cv)
	}
	coo := NewCOO(10)
	for i := 0; i < 10; i++ {
		coo.Add(i, i, 1)
	}
	uniform := coo.ToCSR()
	if cv := RowLengthCV(uniform); cv != 0 {
		t.Fatalf("uniform rows: cv = %v, want 0", cv)
	}
	for j := 1; j < 10; j++ {
		coo.AddSym(0, j, -0.1) // row 0 becomes a hub
	}
	if cv := RowLengthCV(coo.ToCSR()); cv <= 0.5 {
		t.Fatalf("hub matrix: cv = %v, want > 0.5", cv)
	}
}

// TestEstimatePaddingRatioMatchesBuild cross-checks the estimator against
// the real conversion for several (c, σ) pairs.
func TestEstimatePaddingRatioMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randIrregularCSR(211, rng)
	for _, cs := range [][2]int{{0, 0}, {4, 4}, {8, 32}, {3, 10}} {
		est := EstimatePaddingRatio(a, cs[0], cs[1])
		got := SELLFromCSR(a, cs[0], cs[1]).PaddingRatio()
		if est != got {
			t.Fatalf("c=%d σ=%d: estimate %v != built %v", cs[0], cs[1], est, got)
		}
	}
}
