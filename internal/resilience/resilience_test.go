package resilience

import (
	"errors"
	"strings"
	"testing"
)

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
