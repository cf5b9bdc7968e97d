// Package dsdeny holds the fixture's deny-listed name three times: in an
// identifier, in a string literal and in a comment.
package dsdeny

func ZombieCount() int { return 0 }

// Name returns a string literal.
func Name() string { return "a ZOMBIE" }

// Get is documented by a comment that says zombie.
func Get() int { return 1 }
