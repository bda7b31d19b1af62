package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestDoContextNoSleepAfterBreakerOpens is the regression test for the
// wasted-backoff bug: when the failure that opens the breaker lands
// mid-budget, Do used to sleep the full backoff and only then discover
// the open circuit. The fix fails fast, so no virtual time passes after
// the breaker opens.
func TestDoContextNoSleepAfterBreakerOpens(t *testing.T) {
	// Threshold 5, budget 6: the fifth attempt of the first fetch opens
	// the breaker with one attempt left in the budget.
	e := NewExecutor(6, nil, 1)
	vc := e.Clock.(*VirtualClock)

	calls := 0
	err := e.DoContext(context.Background(), "h", func() error { calls++; return fmt.Errorf("down") })
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen once the breaker opens mid-budget", err)
	}
	if calls != 5 {
		t.Errorf("calls = %d, want 5 (the opening failure ends the fetch)", calls)
	}
	// Exactly four backoffs were slept (after attempts 1 to 4); the
	// fifth failure opened the breaker and must not have slept.
	var want time.Duration
	for attempt := 1; attempt <= 4; attempt++ {
		want += Backoff(1, "h", attempt)
	}
	if got := vc.Elapsed(); got != want {
		t.Errorf("virtual time = %v, want %v (no backoff after the breaker opened)", got, want)
	}
	if e.Retries != 4 {
		t.Errorf("retries = %d, want 4 (the refused attempt is not a retry)", e.Retries)
	}
}

// TestDoContextCancelledBeforeAttempt: a cancelled context stops the
// loop before the next attempt runs, and the error carries both the
// cancellation and the last transport failure.
func TestDoContextCancelledBeforeAttempt(t *testing.T) {
	e := NewExecutor(4, nil, 1)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := e.DoContext(ctx, "h", func() error {
		calls++
		cancel() // the run is interrupted while the attempt is failing
		return fmt.Errorf("mid-flight failure")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no attempt after cancellation)", calls)
	}
	if got := err.Error(); !errors.Is(err, context.Canceled) || !contains(got, "mid-flight failure") {
		t.Errorf("error %q does not carry the last attempt's failure", got)
	}
}

// TestDoContextCancelledWaitDoesNotAdvanceVirtualClock: under a virtual
// clock a cancelled backoff wait returns without advancing time — the
// deterministic equivalent of a real clock's interrupted timer.
func TestDoContextCancelledWaitDoesNotAdvanceVirtualClock(t *testing.T) {
	e := NewExecutor(4, nil, 1)
	vc := e.Clock.(*VirtualClock)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.DoContext(ctx, "h", func() error { return fmt.Errorf("never runs") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if vc.Elapsed() != 0 {
		t.Errorf("cancelled run advanced the virtual clock by %v", vc.Elapsed())
	}
}

// TestRealClockSleepContextInterruptible: the real clock's backoff wait
// must return promptly on cancellation instead of sleeping out d.
func TestRealClockSleepContextInterruptible(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- RealClock{}.SleepContext(ctx, time.Hour) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SleepContext did not return after cancellation")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("interrupted sleep blocked for real")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
