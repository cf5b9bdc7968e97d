package spmd

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spcg/internal/fault"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

func TestRunEPanickingRankIsError(t *testing.T) {
	w := NewWorld(4)
	err := w.RunE(func(r *Rank) {
		if r.ID == 2 {
			panic("injected rank failure")
		}
		// The other ranks block collectively; the failure must wake them.
		r.Allreduce([]float64{1})
	})
	if err == nil {
		t.Fatal("panicking rank not reported")
	}
	if !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "injected rank failure") {
		t.Fatalf("error does not identify the failure: %v", err)
	}
}

func TestRunEPanicUnblocksRecvAndSend(t *testing.T) {
	// Rank 1 waits forever on a message nobody sends; rank 0's crash must
	// unwind it instead of deadlocking the run.
	w := NewWorld(2)
	err := w.RunE(func(r *Rank) {
		if r.ID == 0 {
			panic("crash before send")
		}
		r.Recv(0)
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunENoErrorOnCleanRun(t *testing.T) {
	w := NewWorld(3)
	var sum int64
	if err := w.RunE(func(r *Rank) {
		atomic.AddInt64(&sum, int64(r.ID))
		r.Barrier()
	}); err != nil {
		t.Fatalf("clean run errored: %v", err)
	}
	if sum != 3 {
		t.Fatalf("sum = %d", sum)
	}
}

// TestRecvTimeoutPoisonsWorld: RecvTimeout fires when a peer never sends,
// also when it is shorter than the poll that precedes the timer.
func TestRecvTimeoutPoisonsWorld(t *testing.T) {
	for _, timeout := range []time.Duration{50 * time.Microsecond, 20 * time.Millisecond} {
		w := NewWorld(2)
		w.RecvTimeout = timeout
		start := time.Now()
		err := w.RunE(func(r *Rank) {
			if r.ID == 0 {
				r.Recv(1) // rank 1 never sends
			}
			// Rank 1 exits immediately; only rank 0 hangs.
		})
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("timeout %v: err = %v", timeout, err)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("timeout %v took far too long", timeout)
		}
	}
}

// retryBudget is far above any run of consecutive failures the seeded
// injectors below draw, so every retry loop under it ends because the fault
// cleared, never because the budget ran out.
const retryBudget = 64

func TestSendRetriesOnInjectedDrops(t *testing.T) {
	// Each send is retried until its first clean draw, so the four sends
	// consume the stream up to its fourth clean draw whatever the rank
	// interleaving: the counts are deterministic.
	inj := fault.New(3, fault.Config{DropSendProb: 0.5})
	w := NewWorld(4)
	w.Fault = inj
	w.MaxRetries = retryBudget
	err := w.RunE(func(r *Rank) {
		next := (r.ID + 1) % 4
		prev := (r.ID + 3) % 4
		r.Send(next, []float64{float64(r.ID)})
		if got := r.Recv(prev); got[0] != float64(prev) {
			t.Errorf("rank %d got %v from %d", r.ID, got, prev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// One retry per drop and no more: the loops stopped when the fault
	// cleared. Seed 3 drops 4 sends before its fourth clean draw, so all
	// four sends together stay far below one send's budget.
	got, drops := w.RetriedMessages(), inj.Counts().DroppedSends
	if got != drops {
		t.Fatalf("RetriedMessages = %d, injector dropped %d sends", got, drops)
	}
	if got != 4 {
		t.Fatalf("RetriedMessages = %d, want 4", got)
	}
}

func TestAllreduceRetriesDoNotChangeValues(t *testing.T) {
	clean := NewWorld(3)
	var want []float64
	if err := clean.RunE(func(r *Rank) {
		got := r.Allreduce([]float64{float64(r.ID + 1), 2})
		if r.ID == 0 {
			want = got
		}
	}); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(3, fault.Config{AllreduceFailProb: 0.5})
	faulty := NewWorld(3)
	faulty.Fault = inj
	faulty.MaxRetries = retryBudget
	if err := faulty.RunE(func(r *Rank) {
		got := r.Allreduce([]float64{float64(r.ID + 1), 2})
		if got[0] != want[0] || got[1] != want[1] {
			t.Errorf("rank %d: faulty allreduce = %v, want %v", r.ID, got, want)
		}
	}); err != nil {
		t.Fatal(err)
	}
	got, fails := faulty.RetriedMessages(), inj.Counts().FailedAllreduces
	if got != fails {
		t.Fatalf("RetriedMessages = %d, injector failed %d collectives", got, fails)
	}
	// Seed 3 fails 3 attempts before its third clean draw.
	if got != 3 {
		t.Fatalf("RetriedMessages = %d, want 3", got)
	}
}

func TestRetryBudgetBoundsInjectedDrops(t *testing.T) {
	// An injector that always drops must not loop forever: the budget forces
	// delivery after MaxRetries attempts.
	w := NewWorld(2)
	w.Fault = fault.New(1, fault.Config{DropSendProb: 1})
	w.MaxRetries = 4
	err := w.RunE(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, []float64{42})
		} else {
			if got := r.Recv(0); got[0] != 42 {
				t.Errorf("got %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.RetriedMessages(); got != 4 {
		t.Fatalf("RetriedMessages = %d, want MaxRetries=4", got)
	}
}

func TestDistributedSpMVSurvivesInjectedMessageLoss(t *testing.T) {
	// A real halo-exchange SpMV under a seeded lossy network must produce
	// exactly the sequential result — retries guarantee delivery.
	a := sparse.Poisson2D(12, 12)
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, a.Dim())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, a.Dim())
	a.MulVec(want, x)

	p := 5
	locals, err := Distribute(a, p)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(99, fault.Config{DropSendProb: 0.4})
	w := NewWorld(p)
	w.Fault = inj
	got := make([]float64, a.Dim())
	if err := w.RunE(func(rk *Rank) {
		lm := locals[rk.ID]
		dst := make([]float64, lm.NLocal())
		lm.SpMV(rk, dst, x[lm.Lo:lm.Hi])
		copy(got[lm.Lo:lm.Hi], dst)
	}); err != nil {
		t.Fatal(err)
	}
	diff := make([]float64, a.Dim())
	vec.Sub(diff, got, want)
	if vec.Norm2(diff) != 0 {
		t.Fatalf("lossy-network SpMV differs from sequential by %v", vec.Norm2(diff))
	}
	if w.RetriedMessages() == 0 {
		t.Fatal("no retries at 40% drop probability")
	}
	if inj.Counts().DroppedSends == 0 {
		t.Fatal("injector recorded no drops")
	}
}

func TestWorldFaultFieldsZeroValueUnchanged(t *testing.T) {
	// Zero-value fault fields must reproduce the fault-free protocol: same
	// allreduce results, no retries.
	w := NewWorld(4)
	if err := w.RunE(func(r *Rank) {
		got := r.Allreduce([]float64{1})
		if got[0] != 4 {
			t.Errorf("allreduce = %v", got)
		}
		r.Send((r.ID+1)%4, []float64{float64(r.ID)})
		r.Recv((r.ID + 3) % 4)
	}); err != nil {
		t.Fatal(err)
	}
	if w.RetriedMessages() != 0 {
		t.Fatalf("retries without an injector: %d", w.RetriedMessages())
	}
}

// TestPanicUnwindsWaitingRanks: a rank that panics while its peers wait in a
// Barrier or a Recv surfaces its error from RunE, whether the peers are still
// polling (the panic follows their arrival at once) or have parked (it
// follows after several hot windows).
func TestPanicUnwindsWaitingRanks(t *testing.T) {
	for _, wait := range []struct {
		name string
		call func(r *Rank)
	}{
		{"barrier", func(r *Rank) { r.Barrier() }},
		{"recv", func(r *Rank) { r.Recv(0) }},
	} {
		for _, delay := range []time.Duration{0, 5 * time.Millisecond} {
			t.Run(fmt.Sprintf("%s/after=%v", wait.name, delay), func(t *testing.T) {
				w := NewWorld(3)
				var waiting sync.WaitGroup
				waiting.Add(w.P - 1)
				err := w.RunE(func(r *Rank) {
					if r.ID == 0 {
						waiting.Wait()
						time.Sleep(delay)
						panic("rank 0 fails while its peers wait")
					}
					waiting.Done()
					wait.call(r)
				})
				if err == nil || !strings.Contains(err.Error(), "rank 0 panicked") {
					t.Fatalf("err = %v", err)
				}
			})
		}
	}
}

// TestSpinningRanksYieldAtOneP: at GOMAXPROCS 1 a polling rank must yield its
// P, or the peer it waits for never runs. Five ranks through barriers,
// collectives and a message ring, many rounds.
func TestSpinningRanksYieldAtOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const p, rounds = 5, 200
	w := NewWorld(p)
	w.RecvTimeout = 10 * time.Second
	if err := w.RunE(func(r *Rank) {
		for i := 0; i < rounds; i++ {
			r.Barrier()
			if got := r.Allreduce([]float64{1})[0]; got != p {
				t.Errorf("rank %d round %d: allreduce = %v", r.ID, i, got)
			}
			r.Send((r.ID+1)%p, []float64{float64(i)})
			if got := r.Recv((r.ID + p - 1) % p); got[0] != float64(i) {
				t.Errorf("rank %d round %d: got %v", r.ID, i, got)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
