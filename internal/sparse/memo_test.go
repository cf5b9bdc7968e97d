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

// TestMaxRowNNZMemoized: the memo agrees with a direct scan and row lengths
// are immutable, so Scale/AddDiag need not (and do not) invalidate it.
func TestMaxRowNNZMemoized(t *testing.T) {
	a := Poisson2D(7, 5)
	want := 0
	for i := 0; i < a.Dim(); i++ {
		if l := a.RowNNZ(i); l > want {
			want = l
		}
	}
	if got := a.MaxRowNNZ(); got != want {
		t.Fatalf("MaxRowNNZ = %d, want %d", got, want)
	}
	a.Scale(3)
	a.AddDiag(0.5)
	if got := a.MaxRowNNZ(); got != want {
		t.Fatalf("MaxRowNNZ after mutation = %d, want %d", got, want)
	}
	// Empty matrix edge case: max+1 encoding must not confuse 0 with unknown.
	empty := NewCOO(3).ToCSR()
	if got := empty.MaxRowNNZ(); got != 0 {
		t.Fatalf("empty MaxRowNNZ = %d", got)
	}
	if got := empty.MaxRowNNZ(); got != 0 {
		t.Fatalf("empty MaxRowNNZ (cached) = %d", got)
	}
}

// TestDiagConcurrentReads hammers Diag and the memoized MaxRowNNZ from many
// goroutines so `go test -race` verifies the atomic caching scheme.
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
				if a.MaxRowNNZ() != 5 {
					t.Errorf("MaxRowNNZ = %d", a.MaxRowNNZ())
					return
				}
			}
		}()
	}
	wg.Wait()
}
