package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// envelope is the un-jittered backoff before retry attempt: 250ms
// doubling per retry, capped at 8s. Jitter takes up to half of it off.
func envelope(attempt int) time.Duration {
	d := 250 * time.Millisecond
	for i := 1; i < attempt && d < 8*time.Second; i++ {
		d *= 2
	}
	return min(d, 8*time.Second)
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	for attempt := 1; attempt <= 12; attempt++ {
		hi := envelope(attempt)
		if attempt > 1 && hi < envelope(attempt-1) {
			t.Fatalf("attempt %d: envelope shrank", attempt)
		}
		for _, key := range []string{"host", "a.com", "cdn.tracker.net"} {
			d := Backoff(1, key, attempt)
			if d > hi || d < hi/2 {
				t.Fatalf("attempt %d, %s: backoff %v outside [%v, %v]", attempt, key, d, hi/2, hi)
			}
			if d > maxDelay {
				t.Fatalf("attempt %d, %s: backoff %v over cap %v", attempt, key, d, maxDelay)
			}
		}
	}
	if hi := envelope(8); hi != maxDelay {
		t.Errorf("deep retry envelope = %v, want cap %v", hi, maxDelay)
	}
	if Backoff(1, "host", 0) != Backoff(1, "host", 1) {
		t.Error("attempt 0 is not clamped to the first retry")
	}
}

func TestBackoffJitterDeterministicPerKey(t *testing.T) {
	a := Backoff(7, "a.com", 2)
	if a != Backoff(7, "a.com", 2) {
		t.Fatal("same (seed, key, attempt) must give the same jitter")
	}
	if a == Backoff(7, "b.com", 2) && a == Backoff(7, "c.com", 2) {
		t.Error("different keys all jittered identically (suspicious)")
	}
	if a > Backoff(7, "a.com", 5) && Backoff(7, "a.com", 5) == 0 {
		t.Error("jitter zeroed a delay")
	}
	// Jitter only shrinks the deterministic exponential, never grows it.
	for attempt := 1; attempt <= 5; attempt++ {
		if Backoff(7, "a.com", attempt) > envelope(attempt) {
			t.Fatalf("attempt %d: jittered delay exceeds base", attempt)
		}
	}
}

// TestTuningLayoutPinned: the retry pin of a fault-injected checkpoint
// header renders the attempt budget and the constant tuning in the
// header's fixed layout, which the pinned checkpoint and shard-result
// digests hash; a non-positive budget renders as the default it runs
// as.
func TestTuningLayoutPinned(t *testing.T) {
	const want = "{MaxAttempts:4 BaseDelay:250ms MaxDelay:8s Multiplier:2 Jitter:0.5 AttemptTimeout:10s BreakerThreshold:5 BreakerCooldown:30s BreakerProbes:1}"
	for _, n := range []int{0, -3, 4} {
		if got := Tuning(n); got != want {
			t.Errorf("Tuning(%d) = %s, want %s", n, got, want)
		}
	}
	if got := Tuning(1); got != strings.Replace(want, "MaxAttempts:4", "MaxAttempts:1", 1) {
		t.Errorf("Tuning(1) = %s", got)
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

// fail records n failures on b at now.
func fail(b *Breaker, now time.Time, n int) {
	for range n {
		b.Record(now, false)
	}
}

// TestBreakerStateMachine runs the breaker's tuning: it opens at five
// straight failures, half-opens 30s later, and one good probe closes it.
func TestBreakerStateMachine(t *testing.T) {
	b := &Breaker{}
	now := time.Unix(0, 0)

	if !b.Allow(now) || b.State() != BreakerClosed {
		t.Fatal("new breaker must be closed")
	}
	// Four failures: still closed. Fifth: open.
	fail(b, now, 4)
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.Record(now, false)
	if b.State() != BreakerOpen {
		t.Fatal("did not open at threshold")
	}
	if b.Allow(now.Add(29 * time.Second)) {
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
	// Success resets the failure count: four fails, success, four fails
	// must stay closed.
	fail(b, now, 4)
	b.Record(now, true)
	fail(b, now, 4)
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

func TestNonPositiveAttemptsTakeDefault(t *testing.T) {
	for _, n := range []int{0, -1, -3} {
		e := NewExecutor(n, nil, 1)
		if e.MaxAttempts != defaultAttempts {
			t.Errorf("NewExecutor(%d).MaxAttempts = %d, want %d", n, e.MaxAttempts, defaultAttempts)
		}
		// A non-positive budget must not turn Do into a zero-attempt
		// success.
		calls := 0
		err := e.DoContext(context.Background(), "h", func() error { calls++; return fmt.Errorf("down") })
		if calls != defaultAttempts {
			t.Fatalf("budget %d: Do called the op %d times, want %d", n, calls, defaultAttempts)
		}
		if err == nil {
			t.Fatal("Do reported success for an always-failing op")
		}
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
	e := NewExecutor(4, nil, 1)
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
	e := NewExecutor(3, nil, 1)
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
	// Threshold 5, budget 3 per fetch: the second fetch's second
	// attempt trips the breaker, so the fetch ends on the breaker's
	// verdict, and a third fetch, well inside the 30s cooldown, fails
	// fast without calling the op at all.
	e := NewExecutor(3, nil, 1)
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
	// One attempt per fetch: five failing fetches open the breaker.
	e := NewExecutor(1, nil, 1)
	op := &flakyOp{failures: 5}
	for range 5 {
		e.DoContext(context.Background(), "h", op.run)
	}
	if !errors.Is(e.DoContext(context.Background(), "h", op.run), ErrCircuitOpen) {
		t.Fatal("breaker should be open")
	}
	// Advance past the 30s cooldown: the half-open probe runs and
	// succeeds, and that one probe closes the breaker.
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
	e := NewExecutor(5, nil, 1)
	calls := 0
	err := e.DoContext(context.Background(), "h", func() error { calls++; return fatal{} })
	if err == nil || calls != 1 {
		t.Fatalf("non-transient error retried: calls=%d err=%v", calls, err)
	}
}

func TestExecutorDeterministicTiming(t *testing.T) {
	run := func() time.Duration {
		e := NewExecutor(4, nil, 99)
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
