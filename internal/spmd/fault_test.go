package spmd

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
