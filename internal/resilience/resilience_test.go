package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2}.WithDefaults()
	p.Jitter = 0 // pure exponential for this test
	prev := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := p.Backoff(1, "host", attempt)
		if d < prev {
			t.Fatalf("attempt %d: backoff shrank: %v < %v", attempt, d, prev)
		}
		if d > p.MaxDelay {
			t.Fatalf("attempt %d: backoff %v over cap %v", attempt, d, p.MaxDelay)
		}
		prev = d
	}
	if got := p.Backoff(1, "host", 8); got != p.MaxDelay {
		t.Errorf("deep retry = %v, want cap %v", got, p.MaxDelay)
	}
}

func TestBackoffJitterDeterministicPerKey(t *testing.T) {
	p := DefaultPolicy()
	a := p.Backoff(7, "a.com", 2)
	if a != p.Backoff(7, "a.com", 2) {
		t.Fatal("same (seed, key, attempt) must give the same jitter")
	}
	if a == p.Backoff(7, "b.com", 2) && a == p.Backoff(7, "c.com", 2) {
		t.Error("different keys all jittered identically (suspicious)")
	}
	if a > p.Backoff(7, "a.com", 5) && p.Backoff(7, "a.com", 5) == 0 {
		t.Error("jitter zeroed a delay")
	}
	// Jitter only shrinks the deterministic exponential, never grows it.
	noJitter := p
	noJitter.Jitter = 0
	for attempt := 1; attempt <= 5; attempt++ {
		if p.Backoff(7, "a.com", attempt) > noJitter.Backoff(7, "a.com", attempt) {
			t.Fatalf("attempt %d: jittered delay exceeds base", attempt)
		}
	}
}

func TestVirtualClockAdvancesWithoutSleeping(t *testing.T) {
	c := NewVirtualClock()
	start := time.Now()
	c.Sleep(10 * time.Hour)
	if time.Since(start) > time.Second {
		t.Fatal("virtual sleep blocked for real")
	}
	if c.Elapsed() != 10*time.Hour {
		t.Errorf("elapsed = %v, want 10h", c.Elapsed())
	}
	c.Sleep(-time.Hour)
	if c.Elapsed() != 10*time.Hour {
		t.Error("negative sleep moved the clock")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	p := Policy{BreakerThreshold: 3, BreakerCooldown: time.Minute, BreakerProbes: 1}.WithDefaults()
	b := NewBreaker(p)
	now := time.Unix(0, 0)

	if !b.Allow(now) || b.State() != BreakerClosed {
		t.Fatal("new breaker must be closed")
	}
	// Two failures: still closed. Third: open.
	b.Record(now, false)
	b.Record(now, false)
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.Record(now, false)
	if b.State() != BreakerOpen {
		t.Fatal("did not open at threshold")
	}
	if b.Allow(now.Add(30 * time.Second)) {
		t.Fatal("open breaker allowed a request inside cooldown")
	}
	// Cooldown passes: half-open, a probe is allowed.
	if !b.Allow(now.Add(2 * time.Minute)) {
		t.Fatal("breaker never half-opened")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// Failed probe re-opens.
	b.Record(now.Add(2*time.Minute), false)
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open")
	}
	// Next window: successful probe closes.
	if !b.Allow(now.Add(4 * time.Minute)) {
		t.Fatal("second half-open refused")
	}
	b.Record(now.Add(4*time.Minute), true)
	if b.State() != BreakerClosed {
		t.Fatal("successful probe did not close")
	}
	// Success resets the failure count: two fails, success, two fails
	// must stay closed.
	b.Record(now, false)
	b.Record(now, false)
	b.Record(now, true)
	b.Record(now, false)
	b.Record(now, false)
	if b.State() != BreakerClosed {
		t.Fatal("failure count not reset by success")
	}
}

func TestBreakerStateString(t *testing.T) {
	for state, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if state.String() != want {
			t.Errorf("%d.String() = %q, want %q", state, state.String(), want)
		}
	}
}

func TestWithDefaultsClampsNonPositive(t *testing.T) {
	p := Policy{MaxAttempts: -3, BaseDelay: -time.Second, BreakerThreshold: -1}.WithDefaults()
	d := DefaultPolicy()
	if p.MaxAttempts != d.MaxAttempts || p.BaseDelay != d.BaseDelay || p.BreakerThreshold != d.BreakerThreshold {
		t.Errorf("negative fields not clamped to defaults: %+v", p)
	}
	// A negative budget must not turn Do into a zero-attempt success.
	e := NewExecutor(Policy{MaxAttempts: -1}, nil, 1)
	calls := 0
	err := e.DoContext(context.Background(), "h", func() error { calls++; return fmt.Errorf("down") })
	if calls == 0 {
		t.Fatal("Do never called the op")
	}
	if err == nil {
		t.Fatal("Do reported success for an always-failing op")
	}
}

type flakyOp struct {
	failures int
	calls    int
}

func (o *flakyOp) run() error {
	o.calls++
	if o.calls <= o.failures {
		return fmt.Errorf("transient glitch %d", o.calls)
	}
	return nil
}

func TestExecutorRetriesTransientFailure(t *testing.T) {
	e := NewExecutor(Policy{MaxAttempts: 4}, nil, 1)
	op := &flakyOp{failures: 2}
	if err := e.DoContext(context.Background(), "host.com", op.run); err != nil {
		t.Fatalf("Do = %v, want recovery", err)
	}
	if op.calls != 3 {
		t.Errorf("calls = %d, want 3", op.calls)
	}
	if e.Retries != 2 {
		t.Errorf("retries = %d, want 2", e.Retries)
	}
	vc := e.Clock.(*VirtualClock)
	if vc.Elapsed() == 0 {
		t.Error("backoff did not consume virtual time")
	}
}

func TestExecutorExhaustsBudget(t *testing.T) {
	e := NewExecutor(Policy{MaxAttempts: 3}, nil, 1)
	op := &flakyOp{failures: 100}
	err := e.DoContext(context.Background(), "host.com", op.run)
	if err == nil {
		t.Fatal("Do succeeded against a dead op")
	}
	if op.calls != 3 {
		t.Errorf("calls = %d, want 3 (MaxAttempts)", op.calls)
	}
}

func TestExecutorCircuitOpensAcrossFetches(t *testing.T) {
	// Threshold 3, budget 2 per fetch: the second fetch's first attempt
	// trips the breaker, so its second is refused and a third fetch
	// fails fast without calling the op at all.
	e := NewExecutor(Policy{MaxAttempts: 2, BreakerThreshold: 3, BreakerCooldown: time.Hour}, nil, 1)
	op := &flakyOp{failures: 100}
	if err := e.DoContext(context.Background(), "host.com", op.run); err == nil {
		t.Fatal("first fetch should fail")
	}
	if err := e.DoContext(context.Background(), "host.com", op.run); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second fetch = %v, want ErrCircuitOpen", err)
	}
	calls := op.calls
	if err := e.DoContext(context.Background(), "host.com", op.run); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("third fetch = %v, want ErrCircuitOpen", err)
	}
	if op.calls != calls {
		t.Errorf("open circuit still called the op %d times", op.calls-calls)
	}
	if st := e.Breakers.Get("host.com").State(); st != BreakerOpen {
		t.Errorf("host.com breaker = %v, want open", st)
	}
}

func TestExecutorBreakerHalfOpensAfterCooldown(t *testing.T) {
	e := NewExecutor(Policy{MaxAttempts: 1, BreakerThreshold: 2, BreakerCooldown: time.Minute}, nil, 1)
	op := &flakyOp{failures: 2}
	e.DoContext(context.Background(), "h", op.run)
	e.DoContext(context.Background(), "h", op.run)
	if !errors.Is(e.DoContext(context.Background(), "h", op.run), ErrCircuitOpen) {
		t.Fatal("breaker should be open")
	}
	// Advance past cooldown: the half-open probe runs and succeeds.
	e.Clock.Sleep(2 * time.Minute)
	if err := e.DoContext(context.Background(), "h", op.run); err != nil {
		t.Fatalf("post-cooldown probe = %v, want success", err)
	}
	if e.Breakers.Get("h").State() != BreakerClosed {
		t.Error("successful probe did not close the breaker")
	}
}

type fatal struct{}

func (fatal) Error() string   { return "permanent failure" }
func (fatal) Transient() bool { return false }

func TestExecutorDoesNotRetryNonTransient(t *testing.T) {
	e := NewExecutor(Policy{MaxAttempts: 5}, nil, 1)
	calls := 0
	err := e.DoContext(context.Background(), "h", func() error { calls++; return fatal{} })
	if err == nil || calls != 1 {
		t.Fatalf("non-transient error retried: calls=%d err=%v", calls, err)
	}
}

func TestExecutorDeterministicTiming(t *testing.T) {
	run := func() time.Duration {
		e := NewExecutor(Policy{MaxAttempts: 4}, nil, 99)
		op := &flakyOp{failures: 3}
		if err := e.DoContext(context.Background(), "slow-host.com", op.run); err != nil {
			t.Fatal(err)
		}
		return e.Clock.(*VirtualClock).Elapsed()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("virtual elapsed differs across identical runs: %v vs %v", a, b)
	}
}
