// Package dsuser is the other package that keeps parts of ds alive.
package dsuser

import "fixmod/ds"

// Area uses ds.Total, ds.Square and its Side field.
func Area() float64 { return ds.Total(ds.Square{Side: 2}) }
