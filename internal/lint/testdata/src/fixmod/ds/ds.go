// Package ds exercises the deadsurface analyzer's unreferenced-declaration
// check: each declaration is reported or not according to who uses it.
package ds

// Unused has no user at all: reported.
func Unused() {}

// OwnTestOnly is used only by this package's test: reported.
func OwnTestOnly() int { return 1 }

// SharedFixture is used by another package's test: not reported.
func SharedFixture() int { return 2 }

// Shape is used by non-test code (Total's parameter).
type Shape interface{ Area() float64 }

// Total is called from package dsuser.
func Total(s Shape) float64 { return s.Area() }

// Square is built by package dsuser.
type Square struct {
	// Side is set by package dsuser.
	Side float64
	// Dead is an exported field nothing reads or sets: reported.
	Dead int
}

// Area is called only through Shape: not reported.
func (q Square) Area() float64 { return q.Side * q.Side }

// unusedHelper is an unexported func nothing references: reported.
func unusedHelper() {}

// Kept has no user, but a directive suppresses the report.
//
//spcglint:ignore deadsurface fixture exercises the suppression
func Kept() {}
