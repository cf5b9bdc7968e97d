package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The row walk's twin (rowWalk, rowWalk2Cols: assembly on amd64) against the
// Go loop that defines its bits (rowWalkGo, rowWalk2Go). Under -tags purego,
// under -race, or off amd64, the seam is the loop itself and these tests
// hold trivially.

// walkOutcome is what one row walk left behind: its output rows, and the
// text of the panic it raised ("" if none).
type walkOutcome struct {
	dst   [2][]float64
	panic string
}

// walkRows runs rows [lo, hi) of a over x[0] (and x[1] when cols is 2) the
// way MulVecRows and mulRows2 do, through the twin or through the Go loop,
// into outputs pre-filled with a sentinel.
func walkRows(a *CSR, x [2][]float64, lo, hi, cols int, twin bool) (out walkOutcome) {
	for j := range cols {
		out.dst[j] = make([]float64, max(hi-lo, 0))
		for i := range out.dst[j] {
			out.dst[j][i] = -12345.5
		}
	}
	defer func() {
		if r := recover(); r != nil {
			out.panic = fmt.Sprint(r)
		}
	}()
	k, ends, val, col := a.entries(lo, hi)
	switch {
	case cols == 1 && twin:
		rowWalk(out.dst[0], x[0], k, ends, val, col)
	case cols == 1:
		rowWalkGo(out.dst[0], x[0], k, ends, val, col)
	case twin:
		rowWalk2Cols(out.dst[0], out.dst[1], x[0], x[1], k, ends, val, col)
	default:
		rowWalk2Go(out.dst[0], out.dst[1], x[0], x[1], k, ends, val, col)
	}
	return out
}

// checkWalk fails unless the twin and the Go loop leave the same rows, bit
// for bit, and raise the same panic, on one and on two columns.
func checkWalk(t testing.TB, what string, a *CSR, x [2][]float64, lo, hi int) {
	t.Helper()
	for _, cols := range []int{1, 2} {
		got, want := walkRows(a, x, lo, hi, cols, true), walkRows(a, x, lo, hi, cols, false)
		if got.panic != want.panic {
			t.Fatalf("%s, rows [%d, %d), %d columns: twin panicked %q, Go loop %q", what, lo, hi, cols, got.panic, want.panic)
		}
		for j := range cols {
			for i, w := range want.dst[j] {
				if g := got.dst[j][i]; !sameBits(g, w) {
					t.Fatalf("%s, rows [%d, %d), %d columns: column %d row %d = %v, Go loop %v (panic %q)",
						what, lo, hi, cols, j, lo+i, g, w, want.panic)
				}
			}
		}
	}
}

// csrFromLengths builds n rows of the given lengths (cycled) over n+ghosts
// columns, with sorted distinct random columns and random values.
func csrFromLengths(rng *rand.Rand, n, ghosts int, lengths []int) *CSR {
	a := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		length := min(lengths[i%len(lengths)], n+ghosts)
		for _, c := range rng.Perm(n + ghosts)[:length] {
			a.ColIdx = append(a.ColIdx, c)
		}
		row := a.ColIdx[len(a.ColIdx)-length:]
		for p := 1; p < len(row); p++ { // insertion sort: rows are short
			for q := p; q > 0 && row[q-1] > row[q]; q-- {
				row[q-1], row[q] = row[q], row[q-1]
			}
		}
		for range length {
			a.Val = append(a.Val, rng.NormFloat64())
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// walkOperands returns x[0] and x[1] of length m, with a zero, a negative
// zero, infinities and a NaN among normal values.
func walkOperands(rng *rand.Rand, m int) [2][]float64 {
	var x [2][]float64
	for j := range x {
		x[j] = randVec(rng, m)
		for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
			if m > 0 {
				x[j][rng.Intn(m)] = v
			}
		}
	}
	return x
}

// clonedCSR copies a's arrays, so a case can corrupt its own copy.
func clonedCSR(a *CSR) *CSR {
	return &CSR{N: a.N, RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...), Val: append([]float64(nil), a.Val...)}
}

// rowWalkEdgeCases runs the twin against the Go loop on the shapes its pairing
// can get wrong: every row count from 0 to 9 from several first rows (so the
// single-row tail runs, or not), a pair whose first row is a hub and whose
// second has 3 entries and the reverse, empty rows in either slot, ghost
// columns, and corrupt arrays: a column index at or past len(x) or negative
// in either row of a pair or in the tail row, and a row pointer past len(Val)
// or running backwards. A corrupt array must panic as the Go loop does (the
// same message, the same rows written before it), and never fault.
func rowWalkEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const ghosts = 13
	a := csrFromLengths(rng, 40, ghosts, []int{150, 3, 0, 5, 3, 150, 0, 0, 1, 7, 2, 0, 4})
	x := walkOperands(rng, a.N+ghosts)
	for _, lo := range []int{0, 1, 2, 5} {
		for rows := 0; rows <= 9; rows++ {
			checkWalk(t, "hub and short rows", a, x, lo, lo+rows)
		}
	}
	checkWalk(t, "hub and short rows", a, x, 0, a.N)
	checkWalk(t, "hub and short rows", a, x, 3, a.N)

	for _, row := range []int{4, 5, 8, 9} { // first and second row of a pair from 4, and from 5
		for _, bad := range []int{a.N + ghosts, a.N + ghosts + 1000, -1, math.MinInt64} {
			for _, at := range []int{a.RowPtr[row], a.RowPtr[row+1] - 1} { // in the shared stretch, and in a row's tail
				c := clonedCSR(a)
				c.ColIdx[at] = bad
				what := fmt.Sprintf("column %d at entry %d of row %d", bad, at-a.RowPtr[row], row)
				checkWalk(t, what, c, x, 4, 11)
				checkWalk(t, what, c, x, 0, a.N)
			}
		}
		for _, bad := range []int{len(a.Val) + 1, len(a.Val) + 1<<40, math.MaxInt64, 2} {
			c := clonedCSR(a)
			c.RowPtr[row+1] = bad
			what := fmt.Sprintf("RowPtr[%d] = %d of %d entries", row+1, bad, len(a.Val))
			checkWalk(t, what, c, x, 4, 11)
			checkWalk(t, what, c, x, 0, a.N)
		}
	}
	c := clonedCSR(a)
	c.RowPtr[9] = -3 // row 8 ends before it starts, row 9 starts at row 8's start
	checkWalk(t, "negative row end", c, x, 0, a.N)
	c.RowPtr[4] = -3 // a range whose first row starts at a negative entry
	checkWalk(t, "negative first entry", c, x, 4, 12)
	checkWalk(t, "x shorter than the columns", a, [2][]float64{x[0][:a.N], x[1][:a.N]}, 0, a.N)
}

// FuzzRowWalk runs the twin against the Go loop on a random CSR of up to 600
// rows (0 to 12 entries a row, one hub of 200 in about 50) over its own and
// up to 255 ghost columns, on a random row range, with corrupt's low four
// bits each corrupting it one way: a column index out of range, a row
// pointer past len(Val), a row pointer running backwards, a negative row
// pointer.
func FuzzRowWalk(f *testing.F) {
	f.Add(int64(1), uint16(37), uint8(0), uint16(0), uint16(37), uint8(0))
	f.Add(int64(2), uint16(600), uint8(41), uint16(3), uint16(598), uint8(0))
	f.Add(int64(3), uint16(64), uint8(5), uint16(1), uint16(9), uint8(1))
	f.Add(int64(4), uint16(64), uint8(0), uint16(0), uint16(64), uint8(2))
	f.Add(int64(5), uint16(99), uint8(7), uint16(10), uint16(50), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, ghosts uint8, lo, span uint16, corrupt uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(rows)%600 + 1
		lengths := make([]int, n)
		for i := range lengths {
			lengths[i] = rng.Intn(13)
			if rng.Intn(50) == 0 {
				lengths[i] = 200
			}
		}
		a := csrFromLengths(rng, n, int(ghosts), lengths)
		x := walkOperands(rng, n+int(ghosts))
		first := int(lo) % (n + 1)
		last := min(first+int(span)%(n+1), n)
		if corrupt&1 != 0 && len(a.ColIdx) > 0 {
			a.ColIdx[rng.Intn(len(a.ColIdx))] = []int{len(x[0]), -1, math.MaxInt64}[rng.Intn(3)]
		}
		if corrupt&2 != 0 {
			a.RowPtr[1+rng.Intn(n)] = len(a.Val) + 1 + rng.Intn(1000)
		}
		if corrupt&4 != 0 && n > 1 {
			i := 1 + rng.Intn(n-1)
			a.RowPtr[i] = rng.Intn(a.RowPtr[i] + 1)
		}
		if corrupt&8 != 0 {
			a.RowPtr[rng.Intn(n+1)] = -1 - rng.Intn(100)
		}
		checkWalk(t, fmt.Sprintf("seed %d, %d rows, corrupt %04b", seed, n, corrupt&15), a, x, first, last)
	})
}
