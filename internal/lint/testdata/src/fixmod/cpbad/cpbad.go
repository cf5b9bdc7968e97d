// Package cpbad is a miniature solver package whose registered method's
// convergence loop evaluates done() without ever polling cancelled().
package cpbad

// Method is a registered solver entry point.
type Method func(n int) int

// methods is the registry the analyzer roots reachability at.
var methods = map[string]Method{"solve": Solve}

// checker is the convergence criterion with a cancellation hook.
type checker struct{ cancel func() bool }

func (c *checker) done(v float64) bool { return v < 1e-8 }
func (c *checker) cancelled() bool     { return c.cancel != nil && c.cancel() }

// Solve hands its body to the shared runner as a value, the way the solver
// entry points do; reachability must follow it.
func Solve(n int) int { return run(body, n) }

func run(alg func(c *checker, n int) int, n int) int { return alg(&checker{}, n) }

// body iterates to convergence but can never be cancelled.
func body(c *checker, n int) int {
	i := 0
	for ; i < n; i++ {
		if c.done(float64(n - i)) {
			break
		}
	}
	return i
}
