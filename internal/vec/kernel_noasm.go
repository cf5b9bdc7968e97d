//go:build !amd64 || purego

package vec

// Without the assembly the seam is the reference itself.

const useAVX2 = false

func dot(a, b []float64) float64 { return dotGo(a, b) }

func gramTile(acc []float64, x, y [][]float64, t, te int) { gramTileGo(acc, x, y, t, te) }

func axpy(alpha float64, x, y []float64) { axpyGo(alpha, x, y) }

func xpay(dst, x []float64, alpha float64, y []float64) { xpayGo(dst, x, alpha, y) }

func sub(dst, a, b []float64) { subGo(dst, a, b) }

func threeTerm(dst []float64, rho float64, x []float64, gamma float64, y []float64, omr float64, w []float64) {
	threeTermGo(dst, rho, x, gamma, y, omr, w)
}

func combineInit2(d, x0, x1 []float64, c0, c1 float64) { combineInit2Go(d, x0, x1, c0, c1) }

func combine2(d, x0, x1 []float64, c0, c1 float64) { combine2Go(d, x0, x1, c0, c1) }

func combine3(d, x0, x1, x2 []float64, c0, c1, c2 float64) { combine3Go(d, x0, x1, x2, c0, c1, c2) }

func combine4(d, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64) {
	combine4Go(d, x0, x1, x2, x3, c0, c1, c2, c3)
}
