package main

import (
	"os"
	"path/filepath"
	"testing"

	"spcg/internal/sparse"
)

// TestBuildMatrixSpecs: -matrix takes suite names and the shared generator
// grammar (the grammar's own table is sparse.TestParseMatrixSpec).
func TestBuildMatrixSpecs(t *testing.T) {
	for _, spec := range []string{"poisson3d:6", "circuit:6", "thermomech_TC"} {
		a, err := buildMatrix(spec, "")
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if a.Dim() < 36 {
			t.Fatalf("%s: dim %d", spec, a.Dim())
		}
	}
	if _, err := buildMatrix("nope", ""); err == nil {
		t.Fatal("unknown matrix accepted")
	}
}

func TestBuildMatrixFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, sparse.Poisson1D(8)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	a, err := buildMatrix("ignored", path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dim() != 8 {
		t.Fatalf("dim = %d", a.Dim())
	}
	if _, err := buildMatrix("", filepath.Join(dir, "missing.mtx")); err == nil {
		t.Fatal("missing file accepted")
	}
}
