package pool

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		p := New(workers)
		for _, n := range []int{1, 2, 5, 100, 1 << 12} {
			hits := make([]int32, n)
			var mu sync.Mutex
			p.Run(n, func(part, lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				mu.Unlock()
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestDispatchStridedParts(t *testing.T) {
	p := New(4)
	defer p.Close()
	const parts = 11
	seen := make([]int32, parts)
	var mu sync.Mutex
	p.Dispatch(parts, func(t int) {
		mu.Lock()
		seen[t]++
		mu.Unlock()
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("part %d ran %d times", i, c)
		}
	}
}

func TestRunBoundsSkipsEmptyRanges(t *testing.T) {
	p := New(3)
	defer p.Close()
	bounds := []int{0, 4, 4, 10}
	var mu sync.Mutex
	var total int
	p.RunBounds(bounds, func(part, lo, hi int) {
		if lo >= hi {
			t.Errorf("empty range dispatched: part %d [%d,%d)", part, lo, hi)
		}
		mu.Lock()
		total += hi - lo
		mu.Unlock()
	})
	if total != 10 {
		t.Fatalf("covered %d of 10 rows", total)
	}
}

// TestClosedPoolRunsInline: dispatching on a closed pool must still produce
// the full (identical) result, just sequentially.
func TestClosedPoolRunsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(4)
	p.Dispatch(4, func(int) {}) // leaves the workers hot: Close must stop spinners too
	closeWithin(t, p, 5*time.Second)
	// Close has waited for the workers' deferred Done; their exit follows it.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
	n := 1000
	sum := 0
	p.Run(n, func(part, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("closed-pool run got %d, want %d", sum, want)
	}
	p.Close() // idempotent
}

// TestConcurrentDispatches: many goroutines sharing one pool must serialize
// cleanly (run with -race in CI).
func TestConcurrentDispatches(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				n := 256 + g
				out := make([]float64, n)
				p.Run(n, func(part, lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = float64(i)
					}
				})
				for i := range out {
					if out[i] != float64(i) {
						t.Errorf("g=%d rep=%d: out[%d]=%v", g, rep, i, out[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSetDefaultWorkers(t *testing.T) {
	prev := SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers = %d after SetDefaultWorkers(3)", got)
	}
	old := Default()
	if old.Workers() != 3 {
		t.Fatalf("Default pool has %d workers", old.Workers())
	}
	// Replace the pool while its workers are hot, and again while they are
	// parked: both must return (Close waits for the workers to exit), and the
	// old pool must keep working inline.
	old.Dispatch(3, func(int) {})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		SetDefaultWorkers(2)
		waitParked(t, Default(), time.Second)
		SetDefaultWorkers(prev)
	}()
	select {
	case <-swapped:
	case <-time.After(5 * time.Second):
		t.Fatal("SetDefaultWorkers did not return: a worker of the replaced pool never exited")
	}
	var ran atomic.Int32
	old.Dispatch(3, func(int) { ran.Add(1) })
	if ran.Load() != 3 {
		t.Fatalf("replaced pool ran %d of 3 parts", ran.Load())
	}
}

// closeWithin fails the test if p.Close does not return in time.
func closeWithin(t *testing.T, p *Pool, d time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(d):
		t.Fatal("Close did not return: a worker never exited")
	}
}

// waitParked fails the test unless every worker of p parks within the limit;
// it sleeps between looks, so the wait costs no CPU of its own.
func waitParked(t *testing.T, p *Pool, limit time.Duration) {
	t.Helper()
	start := time.Now()
	for w := 1; w < p.nw; w++ {
		for !p.workers[w].parked.Load() {
			if time.Since(start) > limit {
				t.Fatalf("worker %d still hot %v after the last dispatch", w, limit)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// unstartedTeam returns a pool whose worker goroutines never run at all (none
// are started): every share but the caller's is one the dispatcher takes over.
func unstartedTeam(workers int) *Pool {
	p := &Pool{nw: workers, workers: make([]worker, workers), done: make(chan struct{}, 1)}
	for w := 1; w < p.nw; w++ {
		p.workers[w].wake = make(chan struct{}, 1)
	}
	return p
}

// TestPanickingPartLeavesPoolUsable: a panic in a part must neither leave a
// worker running behind a returned Dispatch (the channel-per-call protocol
// leaked its completion token and crashed the process on the next dispatch)
// nor kill a worker goroutine nor leave the join waiting for a share that was
// never counted off — whoever ran the part: the caller (part 0), a hot
// worker, or the dispatcher standing in for a worker that is parked or never
// gets a CPU.
func TestPanickingPartLeavesPoolUsable(t *testing.T) {
	teams := []struct {
		name string
		make func(t *testing.T) *Pool
	}{
		{"hot", func(*testing.T) *Pool { p := New(4); p.Dispatch(4, func(int) {}); return p }},
		{"parked", func(t *testing.T) *Pool { p := New(4); waitParked(t, p, 5*time.Second); return p }},
		{"unstarted", func(*testing.T) *Pool { return unstartedTeam(4) }},
	}
	for _, team := range teams {
		for _, bad := range []int{0, 1} { // part 0 is the caller's own, part 1 a worker's
			p := team.make(t)
			var started, finished atomic.Int32
			got := make(chan any, 1)
			go func() {
				defer func() { got <- recover() }()
				p.Dispatch(4, func(part int) {
					if part == bad {
						panic(errBoom)
					}
					started.Add(1)
					time.Sleep(2 * time.Millisecond) // still running when the panic unwinds
					finished.Add(1)
				})
			}()
			var r any
			select {
			case r = <-got:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s team, bad part %d: Dispatch hung", team.name, bad)
			}
			// Parts nobody had started may be dropped; none may still be running.
			if s, f := started.Load(), finished.Load(); s != f {
				t.Fatalf("%s team, bad part %d: Dispatch unwound with %d parts started and %d finished", team.name, bad, s, f)
			}
			err, _ := r.(error)
			if !errors.Is(err, errBoom) {
				t.Fatalf("%s team, bad part %d: recovered %v, want the part's panic value", team.name, bad, r)
			}
			// The caller's own share panics on the caller's stack; any other
			// arrives as a *PartPanic, whoever ran it.
			if pp, wrapped := r.(*PartPanic); wrapped != (bad != 0) {
				t.Fatalf("%s team, bad part %d: recovered %T", team.name, bad, r)
			} else if wrapped && !strings.Contains(string(pp.Stack), "TestPanickingPartLeavesPoolUsable") {
				t.Fatalf("%s team: captured panic lost its stack:\n%s", team.name, pp.Stack)
			}
			for rep := 0; rep < 1000; rep++ {
				var hits [4]int
				p.Dispatch(4, func(part int) { hits[part]++ })
				if hits != [4]int{1, 1, 1, 1} {
					t.Fatalf("%s team, bad part %d: clean dispatch %d ran parts %v", team.name, bad, rep, hits)
				}
			}
			closeWithin(t, p, 5*time.Second)
		}
	}
}

var errBoom = errors.New("boom")

// TestNoLostWakeup drives the park/wake handshake through its race: most
// dispatches are back to back, and every fiftieth comes after a gap drawn
// around hotWindow, so it lands while the workers are deciding to park.
func TestNoLostWakeup(t *testing.T) {
	const dispatches = 100_000
	p := New(4)
	defer p.Close()
	rng := rand.New(rand.NewSource(15))
	finished := make(chan string, 1)
	go func() {
		var hits [4]int
		for i := 0; i < dispatches; i++ {
			if i%50 == 0 {
				gap := hotWindow - 60*time.Microsecond + time.Duration(rng.Int63n(int64(120*time.Microsecond)))
				for start := time.Now(); time.Since(start) < gap; {
				}
			}
			hits = [4]int{}
			p.Dispatch(4, func(part int) { hits[part]++ })
			if hits != [4]int{1, 1, 1, 1} {
				finished <- fmt.Sprintf("dispatch %d ran its parts %v times", i, hits)
				return
			}
		}
		finished <- ""
	}()
	select {
	case msg := <-finished:
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dispatch loop hung: lost wakeup")
	}
}

func TestStatsCounters(t *testing.T) {
	before := ReadStats()
	p := New(2)
	defer p.Close()
	p.Run(1<<10, func(part, lo, hi int) {})
	CountFusedGram()
	after := ReadStats()
	if after.Dispatches <= before.Dispatches {
		t.Fatal("dispatch counter did not advance")
	}
	if after.FusedGramCalls != before.FusedGramCalls+1 {
		t.Fatal("fused gram counter did not advance")
	}
	// Wakes counts dispatches, not kernels: one after an idle spell, then
	// (nearly) none while the team stays hot.
	waitParked(t, p, time.Second)
	before = ReadStats()
	for i := 0; i < 1000; i++ {
		p.Run(1<<10, func(part, lo, hi int) {})
	}
	after = ReadStats()
	if wakes := after.Wakes - before.Wakes; wakes < 1 || wakes > 100 {
		t.Fatalf("%d wakes over 1000 back-to-back dispatches after an idle spell, want 1 (at most 100 on a stalling box)", wakes)
	}
}

// TestDispatcherRunsUnstartedShares: the join must not wait for a worker
// that is not on a CPU. A pool whose worker goroutines never run at all (none
// are started here) still completes every dispatch, each part exactly once,
// on the caller.
func TestDispatcherRunsUnstartedShares(t *testing.T) {
	p := unstartedTeam(3)
	for rep := 0; rep < 100; rep++ {
		var hits [7]int
		p.Dispatch(7, func(part int) { hits[part]++ })
		if hits != [7]int{1, 1, 1, 1, 1, 1, 1} {
			t.Fatalf("dispatch %d ran its parts %v times", rep, hits)
		}
	}
}
