// Package spmd is a real (not modeled) single-program-multiple-data runtime:
// P ranks run as goroutines, each owning a contiguous block of matrix rows,
// communicating only through explicit messages — point-to-point halo
// exchanges for SpMV ghost values and tree-free deterministic allreduces for
// inner products. It executes the same block-row distribution that
// internal/dist models, demonstrating that the partition/halo machinery
// computes exactly what the sequential kernels compute.
//
// The runtime is deliberately faithful to MPI programming style: a rank can
// only read values it owns or has received, reductions are collective, and
// forgetting an exchange produces wrong results, not panics.
//
// Resilience: RunE recovers per-rank panics and surfaces them as an error on
// the launching goroutine instead of crashing the binary — the first failure
// poisons the world, waking every rank blocked in a barrier, collective or
// Recv so the whole run unwinds cleanly, and RecvTimeout turns protocol hangs
// into errors rather than deadlocks. Message loss is modeled, not injected
// here: dist.FaultModel charges retries on the virtual cluster.
//
// Waiting: a rank at a barrier or in Recv polls for its peers with the
// worker pool's hot wait (pool.Spin: up to the pool's hot window, yielding
// its P as it polls) before it parks, so a synchronisation whose peers arrive
// within the window costs no goroutine wake-up.
package spmd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spcg/internal/pool"
	"spcg/internal/resilience"
)

// errPoisoned unwinds ranks blocked on a world that another rank has failed;
// RunE recognizes and swallows it, reporting only the root cause.
var errPoisoned = errors.New("spmd: world poisoned by another rank's failure")

// World coordinates P ranks. Create one per parallel region with NewWorld,
// then RunE a rank function on every rank. RecvTimeout may be set between
// NewWorld and RunE.
type World struct {
	P int

	// RecvTimeout, when positive, poisons the world if a Recv waits longer —
	// turning protocol deadlocks (e.g. a crashed peer) into errors. It counts
	// from when the rank stops polling and parks, at most the pool's hot
	// window into the Recv.
	RecvTimeout time.Duration

	barrier *barrier
	// reduceBuf[r] holds rank r's contribution to the current allreduce.
	reduceBuf [][]float64
	// mailboxes[to][from] passes halo payloads; buffered so sends never
	// block (each pair exchanges at most one message per round).
	mailboxes [][]chan []float64

	sent     atomic.Int64 // point-to-point messages delivered (halo-count tests)
	poisonMu sync.Mutex
	poisoned bool
	err      error
	done     chan struct{}
}

// NewWorld creates a world of p ranks.
func NewWorld(p int) *World {
	if p < 1 {
		panic(fmt.Sprintf("spmd: world size %d < 1", p))
	}
	w := &World{P: p, barrier: newBarrier(p), reduceBuf: make([][]float64, p), done: make(chan struct{})}
	w.mailboxes = make([][]chan []float64, p)
	for to := 0; to < p; to++ {
		w.mailboxes[to] = make([]chan []float64, p)
		for from := 0; from < p; from++ {
			w.mailboxes[to][from] = make(chan []float64, 1)
		}
	}
	return w
}

// poison records the first failure and wakes every blocked rank. Later
// failures (usually secondary victims) are dropped.
func (w *World) poison(err error) {
	w.poisonMu.Lock()
	if !w.poisoned {
		w.poisoned = true
		w.err = err
		close(w.done)
		w.barrier.abort()
	}
	w.poisonMu.Unlock()
}

// failure returns the recorded root-cause error, if any.
func (w *World) failure() error {
	w.poisonMu.Lock()
	defer w.poisonMu.Unlock()
	return w.err
}

// RunE executes fn on every rank concurrently and waits for all to finish.
// A rank panic does not crash the process: the world is poisoned, all other
// ranks unwind, and the first panic is returned as an error (with the
// panicking rank's stack). A poisoned world must not be reused.
func (w *World) RunE(fn func(r *Rank)) error {
	var wg sync.WaitGroup
	for id := 0; id < w.P; id++ {
		wg.Add(1)
		go func(id int) {
			// resilience.Safe is the single panic boundary for the whole
			// fleet; it preserves error identity through ErrPanic, so the
			// errPoisoned sentinel thrown at secondary victims still matches
			// by errors.Is after wrapping. The stack is captured by Safe.
			if err := resilience.Safe(func() {
				defer wg.Done()
				fn(&Rank{ID: id, W: w})
			}); err != nil {
				if errors.Is(err, errPoisoned) {
					return // secondary victim of another rank's failure
				}
				w.poison(fmt.Errorf("spmd: rank %d panicked: %w", id, err))
			}
		}(id)
	}
	wg.Wait()
	return w.failure()
}

// Rank is one SPMD process.
type Rank struct {
	ID int
	W  *World
}

// Barrier blocks until every rank has reached it.
func (r *Rank) Barrier() { r.W.barrier.wait() }

// Allreduce sums the ranks' local contributions elementwise and returns the
// global result on every rank. Every rank performs the summation itself, in
// rank order, so the result is deterministic, identical on all ranks and
// private to each: a rank may keep and modify what it gets back.
// All ranks must pass slices of the same length.
func (r *Rank) Allreduce(local []float64) []float64 {
	w := r.W
	w.reduceBuf[r.ID] = local
	r.Barrier()
	res := make([]float64, len(local))
	for rank := 0; rank < w.P; rank++ {
		contrib := w.reduceBuf[rank]
		if len(contrib) != len(res) {
			panic(fmt.Sprintf("spmd: allreduce length mismatch: rank %d sent %d values, rank %d sent %d", rank, len(contrib), r.ID, len(res)))
		}
		for i, v := range contrib {
			res[i] += v
		}
	}
	r.Barrier() // nobody reuses its contribution until all have summed it
	return res
}

// Send delivers payload to rank `to` (non-blocking; one in-flight message
// per (from,to) pair per communication round).
func (r *Rank) Send(to int, payload []float64) {
	w := r.W
	w.sent.Add(1)
	select {
	case w.mailboxes[to][r.ID] <- payload:
	case <-w.done:
		panic(errPoisoned)
	}
}

// Recv blocks until the message from rank `from` arrives, the world is
// poisoned, or RecvTimeout expires (which itself poisons the world). It polls
// the mailbox first (pool.Spin), so a message a peer sends within the hot
// window is taken without parking; the timeout's timer exists only once the
// rank is about to block.
func (r *Rank) Recv(from int) []float64 {
	w := r.W
	box := w.mailboxes[r.ID][from]
	var p []float64
	got := false
	if pool.Spin(func() bool {
		select {
		case p = <-box:
			got = true
			return true
		case <-w.done:
			return true
		default:
			return false
		}
	}) {
		if got {
			return p
		}
		panic(errPoisoned)
	}
	var timeout <-chan time.Time // nil without RecvTimeout: never ready
	if w.RecvTimeout > 0 {
		timer := time.NewTimer(w.RecvTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case p := <-box:
		return p
	case <-w.done:
		panic(errPoisoned)
	case <-timeout:
		w.poison(fmt.Errorf("spmd: rank %d: recv from rank %d timed out after %v", r.ID, from, w.RecvTimeout))
		panic(errPoisoned)
	}
}

// barrier is a reusable sense-reversing barrier that can be aborted: abort
// wakes all waiters, and every current or future wait unwinds with
// errPoisoned. A waiter polls the phase (pool.Spin) before it parks on the
// cond; phase and aborted change only under mu, so a waiter that checks them
// under mu before Wait misses no Broadcast.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int // guarded by mu
	phase   atomic.Uint64
	aborted atomic.Bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	if b.aborted.Load() {
		b.mu.Unlock()
		panic(errPoisoned)
	}
	phase := b.phase.Load()
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	released := func() bool { return b.phase.Load() != phase || b.aborted.Load() }
	if !pool.Spin(released) {
		b.mu.Lock()
		for !released() {
			b.cond.Wait()
		}
		b.mu.Unlock()
	}
	if b.aborted.Load() {
		panic(errPoisoned)
	}
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted.Store(true)
	b.cond.Broadcast()
	b.mu.Unlock()
}
