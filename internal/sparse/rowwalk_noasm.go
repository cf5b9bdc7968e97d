//go:build !amd64 || purego || race

package sparse

// Without the assembly the row walk is the reference itself. A race build
// takes this file too: the race detector does not see into assembly, and the
// race tests of the pool and the spmd ranks are there to see this walk's
// loads and stores.
func rowWalk(dst, x []float64, k int, ends []int, val []float64, col []int) {
	rowWalkGo(dst, x, k, ends, val, col)
}

func rowWalk2Cols(d0, d1, x0, x1 []float64, k int, ends []int, val []float64, col []int) {
	rowWalk2Go(d0, d1, x0, x1, k, ends, val, col)
}
