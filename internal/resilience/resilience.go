// Package resilience provides the panic boundary the solve service, the
// gateway and the spmd ranks run their goroutines under: Safe converts a
// panic into an ErrPanic-wrapped, stack-tagged error. A numerical failure is
// not its concern: a solve that breaks down or stops making progress is
// reported to its client under the method it asked for (the solver ends a
// stalled one with a stagnation breakdown, solver.SiteStagnation, counted in
// iterations).
//
// The package is deliberately free of service types. See docs/RESILIENCE.md
// for how internal/service wires it in.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrPanic tags errors produced by Safe from recovered panics.
var ErrPanic = errors.New("resilience: recovered panic")

// maxStackBytes bounds the stack captured into a panic error so a deep panic
// cannot bloat job results or logs.
const maxStackBytes = 4096

// Safe runs fn and converts a panic into an ErrPanic-wrapped error carrying
// the panic value and a truncated stack, so one faulty solve cannot take the
// whole process down.
func Safe(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			if len(stack) > maxStackBytes {
				stack = stack[:maxStackBytes]
			}
			// When the panic value is an error, wrap it so callers can still
			// match it with errors.Is/As through the ErrPanic envelope (the
			// spmd poison protocol panics with a sentinel error and relies on
			// recovering it by identity).
			if pe, ok := p.(error); ok {
				err = fmt.Errorf("%w: %w\n%s", ErrPanic, pe, stack)
			} else {
				err = fmt.Errorf("%w: %v\n%s", ErrPanic, p, stack)
			}
		}
	}()
	fn()
	return nil
}
