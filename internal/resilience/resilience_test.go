package resilience

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreakers(BreakerConfig{Failures: 2, Cooldown: time.Hour})
	key := Key{Fingerprint: 7, Method: "spcg", S: 8}
	now := time.Now()

	if ok, _ := b.Allow(key, now); !ok {
		t.Fatal("fresh key not allowed")
	}
	if tr := b.Record(key, false, now); tr != NoTransition {
		t.Fatalf("first failure: %v", tr)
	}
	if tr := b.Record(key, false, now); tr != Opened {
		t.Fatalf("second failure should open: %v", tr)
	}
	if b.OpenCount() != 1 {
		t.Fatalf("OpenCount = %d", b.OpenCount())
	}
	if ok, _ := b.Allow(key, now.Add(time.Minute)); ok {
		t.Fatal("open circuit inside cooldown allowed a request")
	}
	// Cooldown elapses: exactly one probe gets through.
	later := now.Add(2 * time.Hour)
	ok, probe := b.Allow(key, later)
	if !ok || !probe {
		t.Fatalf("expected half-open probe, got ok=%v probe=%v", ok, probe)
	}
	if ok, _ := b.Allow(key, later); ok {
		t.Fatal("second caller admitted while probe in flight")
	}
	// Failed probe re-opens for another full cooldown.
	if tr := b.Record(key, false, later); tr != Opened {
		t.Fatalf("failed probe: %v", tr)
	}
	if ok, _ := b.Allow(key, later.Add(time.Minute)); ok {
		t.Fatal("re-opened circuit admitted a request inside cooldown")
	}
	// Successful probe closes.
	evenLater := later.Add(2 * time.Hour)
	if ok, probe := b.Allow(key, evenLater); !ok || !probe {
		t.Fatal("no probe after second cooldown")
	}
	if tr := b.Record(key, true, evenLater); tr != Restored {
		t.Fatalf("successful probe: %v", tr)
	}
	if b.OpenCount() != 0 {
		t.Fatalf("OpenCount after restore = %d", b.OpenCount())
	}
	if ok, probe := b.Allow(key, evenLater); !ok || probe {
		t.Fatalf("closed circuit: ok=%v probe=%v", ok, probe)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := NewBreakers(BreakerConfig{Failures: 3, Cooldown: time.Hour})
	key := Key{Fingerprint: 1, Method: "capcg", S: 4}
	now := time.Now()
	b.Record(key, false, now)
	b.Record(key, false, now)
	b.Record(key, true, now) // streak broken
	b.Record(key, false, now)
	b.Record(key, false, now)
	if b.OpenCount() != 0 {
		t.Fatal("non-consecutive failures opened the circuit")
	}
	if tr := b.Record(key, false, now); tr != Opened {
		t.Fatalf("third consecutive failure: %v", tr)
	}
	open := b.Open()
	if len(open) != 1 || open[0].Key != key || open[0].State != BreakerOpen {
		t.Fatalf("Open() = %+v", open)
	}
}

func TestBreakerKeysAreIndependent(t *testing.T) {
	b := NewBreakers(BreakerConfig{Failures: 1, Cooldown: time.Hour})
	now := time.Now()
	k1 := Key{Fingerprint: 1, Method: "spcg", S: 8}
	k2 := Key{Fingerprint: 1, Method: "spcg", S: 4}
	b.Record(k1, false, now)
	if ok, _ := b.Allow(k1, now); ok {
		t.Fatal("k1 should be open")
	}
	if ok, _ := b.Allow(k2, now); !ok {
		t.Fatal("k2 tripped by k1's failures")
	}
}

func TestSafeCapturesPanic(t *testing.T) {
	err := Safe(func() { panic("kaboom") })
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic value lost: %v", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("stack missing: %v", err)
	}
	if len(err.Error()) > maxStackBytes+256 {
		t.Fatalf("stack not truncated: %d bytes", len(err.Error()))
	}
	if err := Safe(func() {}); err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}

func TestRateWindow(t *testing.T) {
	w := NewRateWindow(10)
	if w.Rate() != 0 {
		t.Fatal("fresh window has nonzero rate")
	}
	w.Add(5)
	w.Add(5)
	if r := w.Rate(); r != 1.0 {
		t.Fatalf("rate = %v, want 10 events / 10 s = 1", r)
	}
}

func TestHealthStrings(t *testing.T) {
	for h, want := range map[Health]string{Healthy: "healthy", Degraded: "degraded", Draining: "draining"} {
		if h.String() != want {
			t.Fatalf("%d.String() = %q", h, h.String())
		}
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[BreakerState]string{BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
