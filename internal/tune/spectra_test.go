package tune

import (
	"slices"
	"testing"

	"spcg/internal/sparse"
)

// TestSetupsShareSpectra: Setups pointing at one Spectra hand Resolve the
// same estimate of M⁻¹A (the first block size to ask sets its length), and a
// bare Setup computes its own with the same bits.
func TestSetupsShareSpectra(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	c := Candidate{Method: "spcg", S: 4, Basis: "chebyshev", Precond: "ssor"}
	var sp Spectra
	_, _, first, err := c.Resolve(a, &Setup{Spectra: &sp})
	if err != nil || first.Spectrum == nil {
		t.Fatalf("Resolve: %v, spectrum %v", err, first.Spectrum)
	}
	// A later, larger block size on a fresh Setup (an evicted one rebuilt)
	// shares the estimate the first one computed.
	c.S = 16
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
