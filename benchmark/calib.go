package main

import (
	"sync"
	"time"
)

// The box the benchmark runs on is a small shared virtual machine whose
// speed drifts by a fifth or more within a minute, for a solve as for a bare
// loop. A run therefore measures the machine's speed alongside the work,
// with a fixed kernel of the benchmark's own that no change to the
// repository can touch, and reports times at reference speed: wall time
// divided by the speed index of the moment. Without this, ten runs of one
// build spread wider than any bound a change could be held to; README.md has
// the numbers, and how the kernel was chosen.

// The kernel is a STREAM triad over three 4 MiB arrays per core: too large
// for a core's own caches, so it runs from the cache and memory path the
// cores share with each other and with the host's other tenants. That path,
// not arithmetic, is what the solvers' 13 MB blocks and the drift have in
// common: of the kernels tried, this one tracked all four workloads best.
const tickElems = 512 << 10

// nominalTickMS is the reference the speed index is relative to: what one
// tick took on the calibration box in its fast state. A box that is simply
// faster or slower scales every time metric by one constant, which no
// comparison between two builds on that box sees.
const nominalTickMS = 0.5

// probeLength is how long one speed probe keeps the cores busy.
const probeLength = 30 * time.Millisecond

// tickArrays holds each core's three arrays.
var tickArrays = func() [benchProcs][3][]float64 {
	var out [benchProcs][3][]float64
	for w := range out {
		for k := range out[w] {
			out[w][k] = make([]float64, tickElems)
			for i := range out[w][k] {
				out[w][k][i] = float64(i & 3)
			}
		}
	}
	return out
}()

// tick runs the kernel once on core slot w and returns its duration in
// milliseconds.
func tick(w int) float64 {
	a, b, c := tickArrays[w][0], tickArrays[w][1], tickArrays[w][2]
	t0 := time.Now()
	for i := range a {
		a[i] = b[i] + 3*c[i]
	}
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// speedIndex runs ticks on every core at once for probeLength and returns
// the median tick time over nominal: 1 at reference speed, above 1 when the
// machine is slower.
func speedIndex() float64 {
	var mu sync.Mutex
	var all []float64
	var wg sync.WaitGroup
	for w := 0; w < benchProcs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []float64
			for end := time.Now().Add(probeLength); time.Now().Before(end); {
				mine = append(mine, tick(w))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return median(all) / nominalTickMS
}
