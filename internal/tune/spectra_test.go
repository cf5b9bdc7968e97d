package tune

import (
	"slices"
	"testing"

	"spcg/internal/sparse"
)

// TestSetupsShareSpectra: Setups pointing at one Spectra hand Resolve the
// same estimate of M⁻¹A for block sizes of one Lanczos length, and a bare
// Setup computes its own with the same bits.
func TestSetupsShareSpectra(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	c := Candidate{Method: "spcg", S: 4, Basis: "chebyshev", Precond: "ssor"}
	var sp Spectra
	_, _, first, err := c.Resolve(a, &Setup{Spectra: &sp})
	if err != nil || first.Spectrum == nil {
		t.Fatalf("Resolve: %v, spectrum %v", err, first.Spectrum)
	}
	// A later, larger block size of the same length (max(2s, 20) = 20) on a
	// fresh Setup (an evicted one rebuilt) shares the estimate the first one
	// computed.
	c.S = 8
	_, _, again, err := c.Resolve(a, &Setup{Spectra: &sp})
	if err != nil || again.Spectrum != first.Spectrum {
		t.Fatalf("second Setup on one Spectra: err %v, estimate %p, want %p", err, again.Spectrum, first.Spectrum)
	}
	c.S = 4
	_, _, bare, err := c.Resolve(a, &Setup{})
	if err != nil || bare.Spectrum == nil || bare.Spectrum == first.Spectrum {
		t.Fatalf("bare Setup: err %v, estimate %p (shared %p)", err, bare.Spectrum, first.Spectrum)
	}
	b, f := bare.Spectrum, first.Spectrum
	//spcglint:ignore floatcmp one deterministic Lanczos run, remembered or not
	if b.LambdaMin != f.LambdaMin || b.LambdaMax != f.LambdaMax || b.Iterations != f.Iterations || !slices.Equal(b.Ritz, f.Ritz) {
		t.Fatalf("bare Setup estimate %+v, shared %+v", *b, *f)
	}
}

// TestSpectrumIndependentOfRequestOrder: a block size's estimate of M⁻¹A
// does not depend on which block size asked first. An s = 4 solve resolved
// after an s = 16 one (32 Lanczos steps) on the same Setup gets the 20-step
// estimate an s = 4 solve gets alone.
func TestSpectrumIndependentOfRequestOrder(t *testing.T) {
	a := sparse.Poisson2D(24, 24)
	c := Candidate{Method: "capcg", S: 16, Basis: "chebyshev", Precond: "jacobi"}
	var shared Setup
	if _, _, _, err := c.Resolve(a, &shared); err != nil {
		t.Fatal(err)
	}
	c.S = 4
	_, _, after, err := c.Resolve(a, &shared)
	if err != nil || after.Spectrum == nil {
		t.Fatalf("s = 4 after s = 16: err %v, spectrum %v", err, after.Spectrum)
	}
	_, _, alone, err := c.Resolve(a, &Setup{})
	if err != nil || alone.Spectrum == nil {
		t.Fatalf("s = 4 alone: err %v, spectrum %v", err, alone.Spectrum)
	}
	g, w := after.Spectrum, alone.Spectrum
	//spcglint:ignore floatcmp one deterministic Lanczos run of one length
	if g.Iterations != w.Iterations || g.LambdaMin != w.LambdaMin || g.LambdaMax != w.LambdaMax || !slices.Equal(g.Ritz, w.Ritz) {
		t.Fatalf("s = 4 after s = 16: %d steps [%v, %v]; alone: %d steps [%v, %v]",
			g.Iterations, g.LambdaMin, g.LambdaMax, w.Iterations, w.LambdaMin, w.LambdaMax)
	}
}
