//go:build !purego && !race

package sparse

// rowWalk2 is the amd64 twin of rowWalkGo over an even, positive number of
// rows (rowwalk_amd64.s): the same bits, two rows per pass. It returns the
// cursor after the last row, or ok = false when an index check failed.
//
//go:noescape
func rowWalk2(dst []float64, ends []int, k int, val []float64, col []int, x []float64) (next int, ok bool)

// rowWalk2x2 is rowWalk2 on two columns, the twin of rowWalk2Go.
//
//go:noescape
func rowWalk2x2(d0, d1 []float64, ends []int, k int, val []float64, col []int, x0, x1 []float64) (next int, ok bool)

// rowWalk runs the leading even number of rows through the assembly and the
// last odd row, if any, through the reference. When the assembly finds an
// index out of range it leaves, and the reference reruns every row and
// panics where it always has.
func rowWalk(dst, x []float64, k int, ends []int, val []float64, col []int) {
	if n := len(ends) &^ 1; n > 0 && k >= 0 {
		next, ok := rowWalk2(dst[:n], ends[:n], k, val, col, x)
		if !ok {
			rowWalkGo(dst, x, k, ends, val, col)
			return
		}
		dst, ends, k = dst[n:], ends[n:], next
	}
	rowWalkGo(dst, x, k, ends, val, col)
}

// rowWalk2Cols is rowWalk on two columns: the walk of mulRows2. x1 is at
// least as long as x0.
func rowWalk2Cols(d0, d1, x0, x1 []float64, k int, ends []int, val []float64, col []int) {
	if n := len(ends) &^ 1; n > 0 && k >= 0 {
		next, ok := rowWalk2x2(d0[:n], d1[:n], ends[:n], k, val, col, x0, x1)
		if !ok {
			rowWalk2Go(d0, d1, x0, x1, k, ends, val, col)
			return
		}
		d0, d1, ends, k = d0[n:], d1[n:], ends[n:], next
	}
	rowWalk2Go(d0, d1, x0, x1, k, ends, val, col)
}
