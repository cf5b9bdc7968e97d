package sparse

import (
	"sync"
	"testing"
)

// TestDiagFollowsMutations: Diag hands out a slice the caller owns, and
// reads the values as they are after the two value-mutating operations.
func TestDiagFollowsMutations(t *testing.T) {
	a := Poisson1D(6)
	d1 := a.Diag()
	d1[0] = 999 // callers own their slice; the matrix must not see this
	d2 := a.Diag()
	if d2[0] != 2 {
		t.Fatalf("diag corrupted by caller mutation: %v", d2[0])
	}
	a.AddDiag(1)
	if d := a.Diag(); d[0] != 3 {
		t.Fatalf("diag after AddDiag = %v, want 3", d[0])
	}
	a.Scale(2)
	if d := a.Diag(); d[0] != 6 {
		t.Fatalf("diag after Scale = %v, want 6", d[0])
	}
}

// TestDiagConcurrentReads hammers Diag from many goroutines so
// `go test -race` verifies that concurrent readers of a shared matrix are
// race-free.
func TestDiagConcurrentReads(t *testing.T) {
	a := Poisson2D(30, 30)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				d := a.Diag()
				if d[0] != 4 {
					t.Errorf("diag[0] = %v", d[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}
