// Package faultsim injects deterministic transport faults into the
// synthetic web. The live crawl behind §3.2's funnel fought unreachable
// hosts, timeouts and half-broken sign-up flows; the synthetic substrate
// is perfectly reliable, so this package supplies the missing failure
// modes — transient DNS errors, connection timeouts, HTTP 5xx, slow
// responses, truncated bodies — without giving up reproducibility.
//
// Every decision is a pure function of (seed, host, attempt): the
// injector keeps no mutable state, so serial and parallel crawls see
// identical faults, retries are replayable, and a resumed crawl picks
// up exactly where it stopped. Hosts fall into four behaviours:
//
//   - healthy: never fault (most hosts);
//   - flaky: the first 1..3 fetch attempts fail, then the host
//     recovers (retry-with-backoff wins);
//   - permanent: every attempt fails (the crawl's circuit breaker
//     exhausts and the site is funnelled out as unreachable);
//   - degrading: the host serves its first fetches, then dies
//     mid-flow (the crawl degrades to a partial record).
package faultsim

import (
	"fmt"
	"time"
)

// Kind is a fault class.
type Kind string

// Fault kinds, mirroring what a real measurement crawl hits.
const (
	// KindDNS is a transient name-resolution failure (SERVFAIL).
	KindDNS Kind = "dns_failure"
	// KindTimeout is a connection that never completes within the
	// attempt budget.
	KindTimeout Kind = "conn_timeout"
	// KindHTTP5xx is a server error response.
	KindHTTP5xx Kind = "http_5xx"
	// KindSlow is a response delayed by Fault.Delay; it only fails the
	// fetch when the delay exceeds the caller's attempt budget.
	KindSlow Kind = "slow_response"
	// KindTruncated is a response body cut off mid-transfer.
	KindTruncated Kind = "truncated_body"
	// KindPanic makes the transport panic instead of returning an
	// error — the poison-site case the crash-only runtime quarantines.
	// It is deliberately absent from drawnKinds: the seeded assignment
	// must stay stable, so panics are only injected where Config.Hosts
	// pins them.
	KindPanic Kind = "panic"
)

// drawnKinds lists every fault kind the seeded assignment draws from,
// in draw order. KindPanic is excluded; see its doc.
var drawnKinds = [...]Kind{KindDNS, KindTimeout, KindHTTP5xx, KindSlow, KindTruncated}

// The seeded assignment's class mix and failure windows.
const (
	// permanentFrac of the faulty hosts never recover and degradeFrac
	// die mid-flow after serving their first fetches; the remainder are
	// flaky-then-healthy.
	permanentFrac = 0.1
	degradeFrac   = 0.1
	// maxFailures bounds how many leading attempts a flaky host fails:
	// one under the default retry budget, so retries recover every
	// flaky host.
	maxFailures = 3
	// A degrading host serves minHealthy..maxHealthy fetches before it
	// dies.
	minHealthy = 2
	maxHealthy = 8
)

// Fault describes one injected failure. It implements error so it can
// travel through retry machinery unchanged.
type Fault struct {
	Kind    Kind
	Host    string
	Attempt int
	// Status is the response code for KindHTTP5xx faults.
	Status int
	// Delay is the injected latency for KindSlow faults.
	Delay time.Duration
}

// Error renders the fault as a transport error message.
func (f *Fault) Error() string {
	switch f.Kind {
	case KindHTTP5xx:
		return fmt.Sprintf("faultsim: %s: attempt %d: HTTP %d", f.Host, f.Attempt, f.Status)
	case KindSlow:
		return fmt.Sprintf("faultsim: %s: attempt %d: slow response (%v)", f.Host, f.Attempt, f.Delay)
	default:
		return fmt.Sprintf("faultsim: %s: attempt %d: %s", f.Host, f.Attempt, f.Kind)
	}
}

// Transient reports whether retrying could plausibly help. A live
// crawler cannot tell a permanently dead host from a flaky one, so every
// injected fault presents as transient; circuit breakers are what stop
// the retrying.
func (f *Fault) Transient() bool { return true }

// Profile is one host's fault behaviour.
type Profile struct {
	// Kind is the failure mode this host exhibits.
	Kind Kind
	// FailFirst > 0 fails fetch attempts 1..FailFirst, after which the
	// host recovers (flaky-then-healthy).
	FailFirst int
	// FailAfter > 0 serves attempts 1..FailAfter and fails every later
	// one (healthy-then-dead — the mid-flow degradation case).
	FailAfter int
	// Permanent fails every attempt regardless of the windows above.
	Permanent bool
	// Status is the HTTP status for KindHTTP5xx (default 503).
	Status int
	// Delay is the latency for KindSlow (default 15s, i.e. over any
	// sane attempt budget).
	Delay time.Duration
}

// faulty reports whether the profile fails the attempt-th fetch.
func (p *Profile) faulty(attempt int) bool {
	if p.Permanent {
		return true
	}
	if p.FailFirst > 0 && attempt <= p.FailFirst {
		return true
	}
	if p.FailAfter > 0 && attempt > p.FailAfter {
		return true
	}
	return false
}

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives every fault decision; same seed, same faults.
	Seed uint64
	// Rate is the fraction of hosts that are faulty at all (0..1).
	Rate float64
	// Hosts pins explicit per-host profiles, overriding the seeded
	// assignment. A zero-valued Profile pins the host healthy.
	Hosts map[string]Profile
}

// Injector decides, deterministically, whether a fetch faults. It is
// stateless after construction and safe for concurrent use.
type Injector struct {
	cfg Config
}

// New builds an injector; nil Config semantics live on Config itself
// (zero value = no faults).
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg}
}

// Seed returns the injector's fault seed.
func (in *Injector) Seed() uint64 { return in.cfg.Seed }

// Rate returns the fraction of hosts the injector makes faulty.
func (in *Injector) Rate() float64 { return in.cfg.Rate }

// mix64 is splitmix64's finalizer — a cheap, well-distributed hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hostHash derives the per-(seed, host, salt) decision word.
func (in *Injector) hostHash(host string, salt uint64) uint64 {
	h := in.cfg.Seed ^ 0xfa017517_deadbeef ^ salt
	for i := 0; i < len(host); i++ {
		h = mix64(h ^ uint64(host[i]))
	}
	return mix64(h)
}

// unit maps a hash word onto [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// ProfileFor returns host's fault profile, or nil when the host is
// healthy. The result depends only on (seed, host).
func (in *Injector) ProfileFor(host string) *Profile {
	if p, ok := in.cfg.Hosts[host]; ok {
		if p.Kind == "" && !p.Permanent && p.FailFirst == 0 && p.FailAfter == 0 {
			return nil // explicitly pinned healthy
		}
		return in.finish(&p, host)
	}
	if in.cfg.Rate <= 0 {
		return nil
	}
	if unit(in.hostHash(host, 1)) >= in.cfg.Rate {
		return nil
	}
	p := &Profile{}
	class := unit(in.hostHash(host, 2))
	switch {
	case class < permanentFrac:
		p.Permanent = true
	case class < permanentFrac+degradeFrac:
		p.FailAfter = minHealthy + int(in.hostHash(host, 3)%(maxHealthy-minHealthy+1))
	default:
		p.FailFirst = 1 + int(in.hostHash(host, 4)%maxFailures)
	}
	return in.finish(p, host)
}

// finish fills kind-specific defaults.
func (in *Injector) finish(p *Profile, host string) *Profile {
	if p.Kind == "" {
		p.Kind = drawnKinds[in.hostHash(host, 5)%uint64(len(drawnKinds))]
	}
	if p.Kind == KindHTTP5xx && p.Status == 0 {
		p.Status = []int{500, 502, 503, 504}[in.hostHash(host, 6)%4]
	}
	if p.Kind == KindSlow && p.Delay == 0 {
		p.Delay = 15 * time.Second
	}
	return p
}

// Check returns the fault for the attempt-th fetch of host (1-based),
// or nil when the fetch succeeds. DNS-kind hosts are the resolver's
// business — Check skips them so the DNSHook path owns their attempt
// accounting; transport callers pair Check with a hooked resolver.
func (in *Injector) Check(host string, attempt int) *Fault {
	p := in.ProfileFor(host)
	if p == nil || p.Kind == KindDNS || !p.faulty(attempt) {
		return nil
	}
	return &Fault{Kind: p.Kind, Host: host, Attempt: attempt, Status: p.Status, Delay: p.Delay}
}

// CheckDNS returns the DNS fault for the attempt-th resolution of host,
// or nil. Only KindDNS profiles resolve-fail; other kinds connect fine
// and fail later in the exchange.
func (in *Injector) CheckDNS(host string, attempt int) *Fault {
	p := in.ProfileFor(host)
	if p == nil || p.Kind != KindDNS || !p.faulty(attempt) {
		return nil
	}
	return &Fault{Kind: KindDNS, Host: host, Attempt: attempt}
}

// DNSHook adapts CheckDNS to the dnssim.Resolver hook signature without
// importing dnssim (the dependency points the other way).
func (in *Injector) DNSHook() func(host string, attempt int) error {
	return func(host string, attempt int) error {
		if f := in.CheckDNS(host, attempt); f != nil {
			return f
		}
		return nil
	}
}
