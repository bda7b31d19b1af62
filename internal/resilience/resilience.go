// Package resilience is the crawl runtime's answer to a flaky web:
// retry with exponential backoff and deterministic jitter, per-attempt
// timeout budgets, and per-host circuit breakers. The studies this
// reproduction follows (OpenWPM-style crawls) all grew this machinery
// once their measurement runs met the live web; here it is a reusable
// layer the crawler drives against the faultsim substrate.
//
// Determinism is the design constraint: backoff jitter is a pure
// function of (seed, key, attempt) and time flows through a Clock, so a
// simulated crawl uses a VirtualClock and replays identically — serial,
// parallel, or resumed.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"piileak/internal/obs"
)

// The runtime's tuning. Only the attempt budget is a setting (piicrawl
// -retries); the rest is fixed, and a checkpoint's fault pin renders
// all of it (Tuning).
const (
	// defaultAttempts is the budget a non-positive attempt count takes.
	defaultAttempts = 4
	// baseDelay is the first backoff; each later retry multiplies it by
	// multiplier, up to maxDelay.
	baseDelay  = 250 * time.Millisecond
	maxDelay   = 8 * time.Second
	multiplier = 2
	// jitter is the fraction of each backoff randomized, deterministically
	// per (seed, key, attempt).
	jitter = 0.5
	// AttemptTimeout is the per-attempt budget: a response slower than
	// this fails the attempt.
	AttemptTimeout = 10 * time.Second
	// breakerThreshold consecutive failures open a host's breaker;
	// breakerCooldown later it half-opens, and breakerProbes successful
	// probes close it again. The threshold deliberately exceeds the
	// default budget: one fetch's own retry burst can never trip the
	// breaker (a flaky host must be allowed to recover on its last
	// attempt); only sustained failure across successive fetches opens
	// it.
	breakerThreshold = 5
	breakerCooldown  = 30 * time.Second
	breakerProbes    = 1
)

// attempts resolves an attempt count: non-positive takes the default,
// since a zero budget would make every DoContext a no-op that reports
// success.
func attempts(n int) int {
	if n <= 0 {
		return defaultAttempts
	}
	return n
}

// Tuning renders the tuning an executor of attempt budget n runs under
// (n resolved as NewExecutor resolves it) for a checkpoint header's
// fault pin: the budget beside the constants, in the header's fixed
// layout, so a resume under another budget or other constants is
// refused.
func Tuning(n int) string {
	return fmt.Sprintf("{MaxAttempts:%d BaseDelay:%v MaxDelay:%v Multiplier:%v Jitter:%v AttemptTimeout:%v BreakerThreshold:%d BreakerCooldown:%v BreakerProbes:%d}",
		attempts(n), baseDelay, maxDelay, multiplier, jitter, AttemptTimeout, breakerThreshold, breakerCooldown, breakerProbes)
}

// mix64 is splitmix64's finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Backoff returns the delay before retry number attempt (1-based: the
// wait after the attempt-th failure). The jittered part is a pure
// function of (seed, key, attempt).
func Backoff(seed uint64, key string, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := float64(baseDelay)
	for i := 1; i < attempt; i++ {
		d *= multiplier
		if d >= float64(maxDelay) {
			d = float64(maxDelay)
			break
		}
	}
	h := seed ^ uint64(attempt)*0x9e3779b97f4a7c15
	for i := 0; i < len(key); i++ {
		h = mix64(h ^ uint64(key[i]))
	}
	u := float64(mix64(h)>>11) / float64(1<<53) // [0, 1)
	d *= 1 - jitter*u                           // full-jitter downward
	return time.Duration(d)
}

// Clock abstracts time so the simulated crawl never sleeps for real.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	// SleepContext waits d or until ctx is done, whichever comes
	// first, returning ctx.Err() when the wait was cut short. Every
	// retry, backoff and watchdog wait goes through it, so a cancelled
	// run stops waiting at once.
	SleepContext(ctx context.Context, d time.Duration) error
}

// RealClock is the wall clock.
type RealClock struct{}

// Now returns time.Now.
//
//lint:allow detrand RealClock is the one sanctioned wall-clock source; studies use VirtualClock
func (RealClock) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// SleepContext waits on a real timer, returning early when ctx is
// cancelled mid-wait: the crash-only runtime's "Ctrl-C must not wait
// out an 8s backoff" path.
func (RealClock) SleepContext(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// VirtualClock advances instantly on Sleep. It starts at a fixed epoch
// so runs are comparable, and is safe for concurrent use.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a clock pinned at the Unix epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: time.Unix(0, 0)}
}

// Now returns the virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the virtual time by d without blocking.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// SleepContext advances the virtual clock instantly. A cancelled
// context still short-circuits first, so cancellation behaves
// identically under virtual and real clocks; an uncancelled virtual
// wait never blocks, which is what keeps torture and fault tests
// deterministic and fast.
func (c *VirtualClock) SleepContext(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Sleep(d)
	return nil
}

// Elapsed is the virtual time slept since the epoch.
func (c *VirtualClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now.Sub(time.Unix(0, 0))
}

// BreakerState is a circuit breaker's position.
type BreakerState int

// The classic three-state machine.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-host circuit breaker; the zero value is closed. It
// is not safe for concurrent use; scope one BreakerSet per crawl (the
// crawler gives every site crawl its own, which is what keeps parallel
// crawls deterministic).
type Breaker struct {
	state     BreakerState
	fails     int
	successes int
	until     time.Time // when an open breaker may half-open
}

// State reports the breaker's current position.
func (b *Breaker) State() BreakerState { return b.state }

// Allow reports whether a request may proceed now. An open breaker
// half-opens once its cooldown has passed.
func (b *Breaker) Allow(now time.Time) bool {
	if b.state == BreakerOpen {
		if now.Before(b.until) {
			return false
		}
		b.state = BreakerHalfOpen
		b.successes = 0
	}
	return true
}

// Record feeds one request outcome into the state machine.
func (b *Breaker) Record(now time.Time, ok bool) {
	if ok {
		switch b.state {
		case BreakerHalfOpen:
			b.successes++
			if b.successes >= breakerProbes {
				b.state = BreakerClosed
				b.fails = 0
			}
		default:
			b.fails = 0
		}
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		// A failed probe re-opens immediately.
		b.state = BreakerOpen
		b.until = now.Add(breakerCooldown)
	default:
		b.fails++
		if b.fails >= breakerThreshold {
			b.state = BreakerOpen
			b.until = now.Add(breakerCooldown)
		}
	}
}

// BreakerSet keys breakers by host, creating them on demand.
type BreakerSet struct {
	m map[string]*Breaker
}

// NewBreakerSet builds an empty set.
func NewBreakerSet() *BreakerSet {
	return &BreakerSet{m: map[string]*Breaker{}}
}

// Get returns host's breaker, creating it closed.
func (s *BreakerSet) Get(host string) *Breaker {
	b, ok := s.m[host]
	if !ok {
		b = &Breaker{}
		s.m[host] = b
	}
	return b
}

// ErrCircuitOpen marks a fetch refused because the host's breaker was
// open — the runtime's "stop hammering a dead host" signal.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// Transient tags errors that are worth retrying.
type Transient interface{ Transient() bool }

// retryable reports whether err should be retried: transient-tagged
// errors by their own word, everything else optimistically (a live
// crawler cannot classify unknown transport errors), except an open
// circuit, which retrying cannot help within the same backoff budget.
func retryable(err error) bool {
	if errors.Is(err, ErrCircuitOpen) {
		return false
	}
	var t Transient
	if errors.As(err, &t) {
		return t.Transient()
	}
	return true
}

// Executor runs operations under one attempt budget, clock and breaker
// set. It is single-goroutine (one per site crawl); Retries accumulates
// the backoff retries performed for reporting.
type Executor struct {
	// MaxAttempts is the total tries per operation (1 = no retry).
	MaxAttempts int
	Clock       Clock
	Seed        uint64
	Breakers    *BreakerSet

	// Obs, when set, receives breaker-transition and refusal counts.
	// Telemetry only — never an input to retry decisions.
	Obs *obs.Run

	// Retries counts attempts beyond each fetch's first.
	Retries int
}

// NewExecutor wires an executor with a fresh breaker set and a budget
// of maxAttempts tries per operation (non-positive takes the default
// of 4); a nil clock selects a VirtualClock (the simulation default).
func NewExecutor(maxAttempts int, clock Clock, seed uint64) *Executor {
	if clock == nil {
		clock = NewVirtualClock()
	}
	return &Executor{MaxAttempts: attempts(maxAttempts), Clock: clock, Seed: seed, Breakers: NewBreakerSet()}
}

// DoContext runs op under retry/backoff and key's circuit breaker. op
// is called with nothing and must do its own attempt accounting (the
// crawler's transport counts per-host fetches). It returns nil on
// success, ErrCircuitOpen (wrapped) when the breaker refused, ctx's
// error when the run was cancelled — before an attempt or during a
// backoff wait, which is interrupted rather than slept out — or the
// last attempt's error once the budget is spent.
func (e *Executor) DoContext(ctx context.Context, key string, op func() error) error {
	br := e.Breakers.Get(key)
	var last error
	for attempt := 1; attempt <= e.MaxAttempts; attempt++ {
		if err := ctxErr(ctx, last); err != nil {
			return err
		}
		before := br.State()
		if !br.Allow(e.Clock.Now()) {
			e.Obs.Count(obs.MetricBreakerRefused, 1)
			if last != nil {
				return fmt.Errorf("%w: %s (last error: %v)", ErrCircuitOpen, key, last)
			}
			return fmt.Errorf("%w: %s", ErrCircuitOpen, key)
		}
		e.noteTransition(before, br.State())
		before = br.State()
		err := op()
		br.Record(e.Clock.Now(), err == nil)
		e.noteTransition(before, br.State())
		if err == nil {
			return nil
		}
		last = err
		if !retryable(err) {
			return last
		}
		if attempt < e.MaxAttempts {
			// The failure that just landed may have opened the breaker.
			// Sleeping out the backoff would be pure waste — the next
			// Allow refuses until the cooldown, which is longer than any
			// backoff step — so fail fast with the breaker's verdict.
			if br.State() == BreakerOpen {
				return fmt.Errorf("%w: %s (last error: %v)", ErrCircuitOpen, key, last)
			}
			e.Retries++
			if serr := e.Clock.SleepContext(ctx, Backoff(e.Seed, key, attempt)); serr != nil {
				return ctxErr(ctx, last)
			}
		}
	}
	return last
}

// noteTransition counts a breaker state change in the observer. It is
// pure reporting: the state machine has already moved.
func (e *Executor) noteTransition(from, to BreakerState) {
	if e.Obs == nil || from == to {
		return
	}
	switch to {
	case BreakerOpen:
		e.Obs.Count(obs.MetricBreakerOpened, 1)
	case BreakerHalfOpen:
		e.Obs.Count(obs.MetricBreakerHalfOpen, 1)
	case BreakerClosed:
		e.Obs.Count(obs.MetricBreakerClosed, 1)
	}
}

// ctxErr wraps a context error with the last attempt's failure so the
// caller sees both why the run stopped and what the host was doing.
func ctxErr(ctx context.Context, last error) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if last != nil {
		return fmt.Errorf("%w (last error: %v)", err, last)
	}
	return err
}
