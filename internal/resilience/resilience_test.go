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
