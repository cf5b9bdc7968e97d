//go:build unix

package pool

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestWorkersParkWhenIdle bounds the cost of the hot team to its window:
// after the last dispatch every worker parks within 5 ms, and an idle pool
// burns no CPU. A worker notices that its window has run out only when it is
// on a CPU, and on a box busy with other tests that can take many
// milliseconds — of somebody else's CPU time. So the CPU-time bounds must hold
// in every round, the wall-clock bound in one round of a few: whenever the box
// leaves the workers on their CPUs (1.6–1.9 ms on a quiet box).
func TestWorkersParkWhenIdle(t *testing.T) {
	const limit = 5 * time.Millisecond
	p := New(4)
	defer p.Close()
	quickest := time.Hour
	for round := 0; round < 10 && quickest > limit; round++ {
		for i := 0; i < 100; i++ {
			p.Dispatch(4, func(int) {})
		}
		start, before := time.Now(), cpuTime(t)
		waitParked(t, p, 5*time.Second)
		quickest = min(quickest, time.Since(start))
		if burned := cpuTime(t) - before; burned > limit {
			t.Fatalf("round %d: the team burned %v of CPU before it parked, want < %v (3 workers × %v)", round, burned, limit, hotWindow)
		}
	}
	if quickest > limit {
		t.Fatalf("workers parked no sooner than %v after the last dispatch in 10 rounds, want < %v", quickest, limit)
	}
	before := cpuTime(t)
	time.Sleep(200 * time.Millisecond)
	if burned := cpuTime(t) - before; burned > limit {
		t.Fatalf("idle pool burned %v of CPU in 200ms, want < %v", burned, limit)
	}
}
