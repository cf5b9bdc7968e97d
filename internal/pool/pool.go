// Package pool is the shared-memory kernel execution engine: a persistent
// team of worker goroutines that the vec and sparse kernels dispatch
// row-range and task-grid work onto.
//
// The engine exists because the s-step methods' whole shared-memory argument
// (paper §2.3, Table 1) is that they trade synchronization for larger local
// BLAS kernels — an advantage that evaporates if every kernel invocation pays
// a join. Parking a worker on a channel between kernels is such a join: on
// the 2-vCPU reference box a channel-parked worker starts its part a median
// 105–125 µs (p90 ≈ 440 µs) after the send, and while the freshly woken
// thread shares the dispatcher's CPU the caller's own half runs at 60–70 %
// speed, so a 0.4 ms half-SpMV gained nothing from the second core.
//
// Protocol (hot team). A dispatch publishes one job through an atomic
// pointer. A job's parts are dealt into shares by a fixed stride: share w is
// the parts t ≡ w (mod shares), share 0 is the dispatcher's, share w worker
// w's. Each worker is in one of two states:
//
//	hot    — polling the job pointer. It sees a new job within a fraction of
//	         a microsecond, claims its share, runs it and counts it off the
//	         job's pending counter. Every pollsPerYield polls it yields with
//	         runtime.Gosched, so a hot worker never keeps a runnable goroutine
//	         (HTTP handlers, gateway probes, the GC's workers) off its P for
//	         longer than ~100 ns. It stays an ordinary goroutine on an
//	         ordinary thread, which is why it yields instead of pinning itself
//	         with LockOSThread: pinned spinners take CPUs away from everything
//	         else for the life of the process, a yielding one is preempted
//	         like any other goroutine and is gone after hotWindow.
//	parked — blocked on its wake channel. A worker parks when hotWindow has
//	         passed since its last share without a new job; it first raises
//	         its parked flag and re-checks the job pointer, and the
//	         dispatcher, after publishing, claims every raised flag (CAS) and
//	         sends that worker one token. Either the worker sees the job or
//	         the dispatcher sees the flag (both are sequentially consistent
//	         atomics), so no wakeup is lost and at most one token per worker
//	         is ever outstanding.
//
// The dispatcher runs share 0, then takes and runs every share whose worker
// has not claimed it yet — a worker that is still waking up, or is not on a
// CPU, is not waited for — and only then joins: it spins on the pending
// counter for the same window (yielding likewise) before it blocks on the
// done channel. The counter includes the dispatcher, so whoever counts off
// last knows whether anyone is blocked and a token is sent exactly when it
// will be received. The join of a balanced kernel therefore costs under
// 2 µs, the wake lag is paid about once per solve (Stats.Wakes against
// Stats.Dispatches) instead of once per kernel, and a team whose workers get
// no CPU at all runs at the speed of the caller alone.
//
// hotWindow is the one tuning constant. ≈100 µs re-parks a worker inside the
// caller's own part of the next kernel and gains nothing; 0.5–1 ms holds the
// team across the scalar work between a solve's back-to-back kernels (dense
// s×s factorizations, convergence checks) and bounds the idle cost to that
// much CPU per worker after the last dispatch.
//
// Determinism contract: work is split into parts by *fixed* arithmetic on
// (n, parts), and a part's rows follow from its number alone, so which
// goroutine runs a part — its worker or the dispatcher, hot or freshly woken,
// or the caller when a dispatch degrades to inline execution (a closed pool,
// a single-worker pool or a team busy with another caller's job runs the same
// parts in part order on the caller) — decides nothing. The pool keeps no
// reduction of its own: a kernel that sums (internal/vec's Dot and fused Gram)
// fixes its partial sums on a grid of n alone and dispatches that grid's
// steps, so its bits do not depend on the worker count either.
//
// Failure contract: Dispatch returns or unwinds only when no part of the job
// is running any more, also when a part panics. A panic in the caller's own
// share — on the inline path that is every part — unwinds from where it
// happened (shares nobody had started are then dropped). A panic in any other share — run by its worker or by the
// dispatcher standing in for it — is captured with its stack, the share is
// counted off like a finished one, and the join re-raises it as a *PartPanic,
// so which of the two ran the share decides nothing. The workers survive and
// the pool stays usable.
//
// Concurrency contract: any number of solver goroutines may share one Pool.
// The team runs one job at a time; a dispatch that finds it running another
// caller's job does not queue behind it but runs every part of its own job on
// its caller, in part order (Stats.BusyInline). Waiting would park the caller
// for a wake lag while its own CPU idles, and the inline run computes the
// pooled bits. Two concurrent solves therefore use the team and the second
// caller's CPU at once, and a lone dispatcher always gets the team. The mutex
// only sequences the team's jobs and Close. Resizing via SetDefaultWorkers
// swaps the shared default pool atomically — in-flight dispatches on the old
// pool complete before its workers exit, and later dispatches that still hold
// the old pointer fall back to inline execution (same results, no panic).
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// hotWindow is how long a worker keeps polling for the next job after its
	// last part, how long a dispatcher polls for its workers before it
	// blocks, and how long any other Spin caller polls before it parks (see
	// the package comment for the sizing).
	hotWindow = 500 * time.Microsecond
	// pollsPerYield is the number of polls between the yields (and clock
	// reads) of a spinning worker or dispatcher.
	pollsPerYield = 128
)

// job is one dispatch: parts row ranges and the function to run on each.
// What a worker reads of a job it takes no part in (active, stop) is
// immutable once published, so it may do so while the dispatcher has moved on
// to the next. The ranges live here rather than in a closure around
// body, which keeps a dispatch at one allocation of the pool's own.
type job struct {
	body   func(part, lo, hi int)
	parts  int
	bounds []int // part t is [bounds[t], bounds[t+1]); nil: the uniform grid
	n      int   // uniform grid: part t is [t·chunk, min((t+1)·chunk, n))
	chunk  int
	active int    // shares: worker w's is the parts t ≡ w (mod active); the dispatcher's is 0
	seq    uint64 // position in the pool's sequence of jobs (claims compare it)
	stop   bool   // Close's sentinel: workers exit

	// pend counts the worker shares not yet finished, plus one for the
	// dispatcher, who counts itself off only when it is about to block.
	pend   atomic.Int32
	failed atomic.Pointer[PartPanic] // first panic captured in a worker share
}

// run executes share w — the parts t ≡ w (mod active) — in increasing part
// order. Empty ranges are skipped but keep their part number.
func (j *job) run(w int) {
	for t := w; t < j.parts; t += j.active {
		lo, hi := t*j.chunk, min((t+1)*j.chunk, j.n)
		if j.bounds != nil {
			lo, hi = j.bounds[t], j.bounds[t+1]
		}
		if lo < hi {
			j.body(t, lo, hi)
		}
	}
}

// PartPanic is the value Dispatch panics with when a part outside the
// caller's own share panicked: the original value and the stack at that
// point, on the worker or on the dispatcher that took the share over.
type PartPanic struct {
	Value any
	Stack []byte
}

func (e *PartPanic) Error() string {
	return fmt.Sprintf("pool: part panicked: %v\n%s", e.Value, e.Stack)
}

// Unwrap exposes an error panic value to errors.Is/As.
func (e *PartPanic) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// worker is the per-worker half of the park/wake and claim handshakes.
type worker struct {
	wake   chan struct{} // buffered 1: at most one token outstanding
	parked atomic.Bool
	// claimed is the seq of the last job for which this worker's share was
	// taken — by the worker, or by a dispatcher that got to it first.
	claimed atomic.Uint64
}

// Pool is a fixed-size team of persistent worker goroutines.
type Pool struct {
	nw      int
	workers []worker       // workers[w] for 1..nw-1 (worker 0 is the caller)
	done    chan struct{}  // last worker → blocked dispatcher, buffered 1
	exited  sync.WaitGroup // worker goroutines; Close waits for them

	// mu is held by the one dispatch whose job the team runs, and by Close. A
	// dispatch only tries it: one that finds it held runs inline.
	mu     sync.Mutex
	closed bool
	seq    uint64 // number of the last job published

	_   [64]byte // keep the polled word off the cache line the mutex dirties
	job atomic.Pointer[job]
	_   [64]byte
}

// New creates a pool with the given worker count (minimum 1). A pool with one
// worker runs everything inline on the caller.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		nw:      workers,
		workers: make([]worker, workers),
		done:    make(chan struct{}, 1),
	}
	for w := 1; w < workers; w++ {
		p.workers[w].wake = make(chan struct{}, 1)
		p.exited.Add(1)
		go p.workerLoop(w)
	}
	return p
}

// Workers returns the pool's worker count (including the dispatching caller).
func (p *Pool) Workers() int { return p.nw }

func (p *Pool) workerLoop(w int) {
	defer p.exited.Done()
	var last *job
	for {
		j := p.await(w, last)
		if j.stop {
			return
		}
		last = j
		if w >= j.active || !p.claim(w, j) {
			continue
		}
		j.runGuarded(w)
		if j.pend.Add(-1) == 0 {
			p.done <- struct{}{} // the dispatcher counted itself off: it is blocked
		}
	}
}

// Spin polls ready until it reports true or hotWindow has passed, yielding
// the P every pollsPerYield polls. It reports whether ready did; on false the
// caller blocks the way it would have without the spin. It is the one hot
// wait of the process: the team's workers and joins use it, and so do the
// real ranks of internal/spmd at their barriers and receives.
func Spin(ready func() bool) bool {
	if ready() {
		return true // the common join: spare it the clock read
	}
	start := time.Now()
	for {
		for i := 0; i < pollsPerYield; i++ {
			if ready() {
				return true
			}
		}
		runtime.Gosched()
		if time.Since(start) >= hotWindow {
			return false
		}
	}
}

// await returns the first job after last: polled while the worker is hot,
// announced through the wake channel once it has parked.
func (p *Pool) await(w int, last *job) *job {
	me := &p.workers[w]
	var j *job
	for !Spin(func() bool { j = p.job.Load(); return j != last }) {
		me.parked.Store(true)
		// A job published before the flag went up was published without a
		// token. Take the flag back down; failing that, the dispatcher has
		// claimed it and the token is on its way.
		if p.job.Load() == last || !me.parked.CompareAndSwap(true, false) {
			<-me.wake
		}
	}
	return j
}

// runGuarded runs worker share w and captures a panic — on a worker it would
// kill the process, on the dispatcher it would skip the share's count-off and
// hang the join — for join to re-raise.
func (j *job) runGuarded(w int) {
	defer func() {
		if r := recover(); r != nil {
			j.failed.CompareAndSwap(nil, &PartPanic{Value: r, Stack: debug.Stack()})
		}
	}()
	j.run(w)
}

// publish makes j the current job and wakes the first `upto` workers that
// are parked. It reports whether any was.
func (p *Pool) publish(j *job, upto int) (woke bool) {
	p.job.Store(j)
	for w := 1; w < upto; w++ {
		if me := &p.workers[w]; me.parked.Load() && me.parked.CompareAndSwap(true, false) {
			me.wake <- struct{}{}
			woke = true
		}
	}
	return woke
}

// claim reports whether the caller gets worker w's share of j. A share has
// two takers — the worker, and the dispatcher once its own share is done —
// and exactly one wins. A worker that comes late to a finished job finds the
// share taken (every share of a finished job is), so one attempt decides.
func (p *Pool) claim(w int, j *job) bool {
	c := &p.workers[w].claimed
	seen := c.Load()
	return seen < j.seq && c.CompareAndSwap(seen, j.seq)
}

// help takes every share no worker has started and, if run is set, runs it
// on the caller, exactly as its worker would have (runGuarded, count-off).
// Which goroutine runs a part changes nothing in the result: a part's rows
// are fixed by its number.
func (p *Pool) help(j *job, run bool) {
	for w := 1; w < j.active; w++ {
		if p.claim(w, j) {
			if run {
				j.runGuarded(w)
			}
			j.pend.Add(-1)
		}
	}
}

// join waits until every share of j is finished, then re-raises a panic
// captured in a worker share. Deferred by exec, so it also runs while a panic of a
// share the dispatcher ran unwinds — it then drops the shares nobody has
// started: no worker is ever left running a job whose Dispatch has returned.
func (p *Pool) join(j *job) {
	p.help(j, false)
	if !Spin(func() bool { return j.pend.Load() == 1 }) && j.pend.Add(-1) != 0 {
		<-p.done
	}
	// The job stays reachable as the team's last-seen marker; the kernel's
	// operands must not.
	j.body, j.bounds = nil, nil
	if pp := j.failed.Load(); pp != nil {
		panic(pp)
	}
}

// inline runs every part on the caller, in part order.
func (j *job) inline() {
	countInline.Add(1)
	j.active = 1
	j.run(0)
}

// exec runs j's parts, spread over the workers, and returns when every part
// has finished.
func (p *Pool) exec(j *job) {
	if j.parts == 1 || p.nw == 1 {
		j.inline()
		return
	}
	// The team is another caller's: queueing behind its job would park this
	// goroutine while its own CPU idles, so every part runs here instead.
	if !p.mu.TryLock() {
		countBusyInline.Add(1)
		j.inline()
		return
	}
	defer p.mu.Unlock()
	if p.closed {
		j.inline()
		return
	}
	countDispatch.Add(1)
	p.seq++
	j.seq = p.seq
	j.active = min(p.nw, j.parts)
	j.pend.Store(int32(j.active))
	if p.publish(j, j.active) {
		countWake.Add(1)
	}
	defer p.join(j)
	j.run(0) // the caller is worker 0
	// A worker that is not on a CPU right now — just woken, or its thread
	// sharing this one's — must not be waited for: its share runs here.
	p.help(j, true)
}

// Dispatch runs fn(part) for every part in [0, parts), spread over the
// workers. Parts may exceed the worker count; they are dealt into one share
// per worker by a fixed stride. Dispatch returns when every part has
// finished. fn must only touch data disjoint per part.
func (p *Pool) Dispatch(parts int, fn func(part int)) {
	if parts <= 0 {
		return
	}
	p.exec(&job{body: func(t, _, _ int) { fn(t) }, parts: parts, n: parts, chunk: 1})
}

// Run splits [0, n) into one fixed contiguous chunk per worker and runs
// body(part, lo, hi) for each non-empty chunk. Chunk boundaries depend only
// on (n, workers): chunk = ceil(n/workers). Sub-threshold n should be handled
// by the caller (Run always dispatches).
func (p *Pool) Run(n int, body func(part, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := min(p.nw, n)
	chunk := (n + w - 1) / w
	p.exec(&job{body: body, parts: (n + chunk - 1) / chunk, n: n, chunk: chunk})
}

// RunBounds runs body(part, bounds[part], bounds[part+1]) for each of the
// len(bounds)-1 precomputed ranges (e.g. nnz-balanced row ranges). Empty
// ranges still occupy a part slot, so part numbers stay stable.
func (p *Pool) RunBounds(bounds []int, body func(part, lo, hi int)) {
	if parts := len(bounds) - 1; parts > 0 {
		p.exec(&job{body: body, parts: parts, bounds: bounds})
	}
}

// Close stops the workers, hot or parked, and returns once they have exited.
// Dispatches in flight complete first; later dispatches run inline. Close is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.publish(&job{stop: true}, p.nw)
	p.exited.Wait()
}

// defaultPool is the shared engine used by the vec and sparse kernels,
// created lazily at GOMAXPROCS size and replaced atomically by
// SetDefaultWorkers.
var defaultPool atomic.Pointer[Pool]

// Default returns the shared pool, creating it on first use.
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := New(runtime.GOMAXPROCS(0))
	if defaultPool.CompareAndSwap(nil, p) {
		return p
	}
	p.Close()
	return defaultPool.Load()
}

// SetDefaultWorkers replaces the shared pool with one of the given size
// (w <= 0 restores GOMAXPROCS) and returns the previous size. The swap is
// atomic: concurrent kernels either use the old pool (whose in-flight
// dispatches finish before its workers exit, falling back to inline execution
// afterwards) or the new one. Intended for benchmarks sweeping shared-memory
// parallelism; servers should size the pool once at startup.
func SetDefaultWorkers(w int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	np := New(w)
	old := defaultPool.Swap(np)
	prev := runtime.GOMAXPROCS(0)
	if old != nil {
		prev = old.nw
		old.Close()
	}
	return prev
}

// DefaultWorkers returns the shared pool's current size without creating it.
func DefaultWorkers() int {
	if p := defaultPool.Load(); p != nil {
		return p.nw
	}
	return runtime.GOMAXPROCS(0)
}

// Global kernel counters (atomic, monotone). They make the serving-path wins
// observable: the solve service snapshots them into /metrics.
var (
	countDispatch   atomic.Uint64 // pool dispatches (parallel fan-outs)
	countInline     atomic.Uint64 // dispatches degraded to inline execution
	countBusyInline atomic.Uint64 // ... of them because the team ran another caller's job
	countWake       atomic.Uint64 // dispatches that had to unpark a worker
	countFusedGram  atomic.Uint64 // fused cache-blocked Gram calls
	countFusedComb  atomic.Uint64 // fused block-combine calls (AddMul/Mul/MulVec*)
	countFusedBasis atomic.Uint64 // fused SpMV+three-term+diag basis steps
	countSpMV       atomic.Uint64 // pool-dispatched SpMV kernels
)

// CountFusedGram records one fused Gram invocation (called by vec).
func CountFusedGram() { countFusedGram.Add(1) }

// CountFusedCombine records one fused block-combine invocation.
func CountFusedCombine() { countFusedComb.Add(1) }

// CountFusedBasisStep records one fused MPK basis step (called by sparse).
func CountFusedBasisStep() { countFusedBasis.Add(1) }

// CountSpMV records one pool-dispatched SpMV (called by sparse).
func CountSpMV() { countSpMV.Add(1) }

// Stats is a snapshot of the engine's global counters.
type Stats struct {
	Workers         int    `json:"workers"`
	Dispatches      uint64 `json:"dispatches"`
	Wakes           uint64 `json:"wakes"` // dispatches that found a worker parked
	InlineRuns      uint64 `json:"inline_runs"`
	BusyInline      uint64 `json:"busy_inline_runs"` // inline runs that found the team busy (also in InlineRuns)
	FusedGramCalls  uint64 `json:"fused_gram_calls"`
	FusedCombines   uint64 `json:"fused_combine_calls"`
	FusedBasisSteps uint64 `json:"fused_basis_steps"`
	SpMVDispatches  uint64 `json:"spmv_dispatches"`
}

// ReadStats snapshots the global counters and the default pool size.
func ReadStats() Stats {
	return Stats{
		Workers:         DefaultWorkers(),
		Dispatches:      countDispatch.Load(),
		Wakes:           countWake.Load(),
		InlineRuns:      countInline.Load(),
		BusyInline:      countBusyInline.Load(),
		FusedGramCalls:  countFusedGram.Load(),
		FusedCombines:   countFusedComb.Load(),
		FusedBasisSteps: countFusedBasis.Load(),
		SpMVDispatches:  countSpMV.Load(),
	}
}
