//go:build race

package solver

// raceEnabled reports a build with the race detector, whose sync.Pool drops
// items at random: a count that relies on a warm pool is not pinned there.
const raceEnabled = true
