package crawler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"piileak/internal/browser"
	"piileak/internal/dnssim"
	"piileak/internal/faultsim"
	"piileak/internal/mailbox"
	"piileak/internal/obs"
	"piileak/internal/resilience"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// This file is the resilient crawl runtime: the glue between faultsim's
// injected failures and the §3.2 flow. Every site crawl under fault
// injection gets its own transport — per-host attempt counters, circuit
// breakers, a virtual clock and a watchdog deadline — so serial,
// parallel and resumed runs of the same seed produce byte-identical
// datasets.

// Options configures a crawl beyond the stock fault-free defaults.
type Options struct {
	// Source supplies the site population (site i materialized on
	// demand); nil means the ecosystem's universe, which at the default
	// universe size is exactly the candidate sites. A materialized
	// subset passes as site.Slice(sites).
	Source site.Source
	// Workers > 1 crawls with that many parallel workers; <= 1 crawls
	// serially with one browser.
	Workers int
	// MaxAttempts is the tries per fetch under fault injection (1 = no
	// retry); <= 0 takes the runtime's default of 4.
	MaxAttempts int
	// SiteTimeout is the per-site watchdog budget under fault
	// injection: a site whose crawl exceeds it (on the transport's
	// virtual clock, so runs stay deterministic) is cut off and
	// recorded as OutcomeTimeout with its partial captures kept. <= 0
	// disables the watchdog. Without an injector nothing advances a
	// site's clock, so the budget has nothing to act on.
	SiteTimeout time.Duration
	// Quarantine, when set, receives a diagnostics bundle for every
	// site whose crawl (or detection, in the pipeline) panicked. A nil
	// quarantine still recovers panics and marks the site
	// OutcomeCrashed; the bundle is simply not persisted.
	Quarantine *Quarantine
	// CheckpointPath, when set, persists per-site progress so an
	// interrupted run can continue; Resume folds the file's finished
	// sites instead of running them again. The stage that finishes a
	// site appends its line — Run after the crawl, the study pipeline
	// after detection — fsynced in 1 MiB groups and when the run ends,
	// so a killed process loses the sites not yet appended and an OS
	// crash at most the unsynced group (see Checkpoint). CrawlStream
	// ignores both.
	CheckpointPath string
	Resume         bool
	// OnResume, when set together with Resume, is called once with the
	// loaded checkpoint's summary before crawling begins.
	OnResume func(ResumeSummary)
	// Obs, when set, receives the crawl's telemetry: per-site spans,
	// outcome/record counters, checkpoint and quarantine activity, fault
	// injections and the resilience machinery's accounting. A nil
	// observer is free; telemetry never feeds back into the crawl.
	Obs *obs.Run
	// Shard/Shards scope this crawl to one failure domain of a sharded
	// study: the run covers shard index Shard of Shards total. Shards
	// == 0 is the unsharded default. The pair stamps the checkpoint
	// header, so a shard's checkpoint can never be resumed by a
	// different shard — or by an unsharded run — without an explicit
	// error, and a sealed shard result names its shard.
	Shard, Shards int
}

// Validate rejects contradictory option combinations instead of
// silently preferring one side. It is the single source of truth the
// pipeline's embedded options validate through.
func (o Options) Validate() error {
	if o.Resume && o.CheckpointPath == "" {
		return errors.New("crawler: Resume requires CheckpointPath")
	}
	if o.OnResume != nil && !o.Resume {
		return errors.New("crawler: OnResume is set but Resume is not — the callback would never fire")
	}
	if o.SiteTimeout < 0 {
		return fmt.Errorf("crawler: negative SiteTimeout %v", o.SiteTimeout)
	}
	if o.Shards < 0 {
		return fmt.Errorf("crawler: negative Shards %d", o.Shards)
	}
	if o.Shards == 0 && o.Shard != 0 {
		return fmt.Errorf("crawler: Shard %d set without Shards", o.Shard)
	}
	if o.Shards > 0 && (o.Shard < 0 || o.Shard >= o.Shards) {
		return fmt.Errorf("crawler: Shard %d out of range [0, %d)", o.Shard, o.Shards)
	}
	return nil
}

// ResumeSummary describes what a resumed run recovered from its
// checkpoint: the completed sites it will not re-crawl, and the
// torn (crash-truncated or corrupt) trailing records it dropped.
type ResumeSummary struct {
	Completed   int `json:"completed"`
	TornRecords int `json:"torn_records"`
}

// source resolves the options' effective site supply: Source, else the
// ecosystem's universe.
func (o Options) source(eco *webgen.Ecosystem) site.Source {
	if o.Source != nil {
		return o.Source
	}
	return eco.Universe()
}

// FaultPin holds the crawl settings that change a faulted site's bytes:
// the ecosystem's injector seed and rate, the retry tuning at the
// effective attempt budget and the site watchdog budget. A crawl
// without an injector never retries and never advances its clock, so
// none of them can change a byte there: its pin is zero and adds
// nothing to a checkpoint header or a shard plan.
type FaultPin struct {
	FaultSeed   uint64  `json:"fault_seed,omitempty"`
	FaultRate   float64 `json:"fault_rate,omitempty"`
	Retry       string  `json:"retry,omitempty"`
	SiteTimeout string  `json:"site_timeout,omitempty"`
}

// FaultPin returns the pin of a crawl of eco under these options. The
// retry pin renders the attempt budget beside the runtime's constant
// tuning (resilience.Tuning), so a change to either is pinned.
func (o Options) FaultPin(eco *webgen.Ecosystem) FaultPin {
	inj := eco.Faults
	if inj == nil {
		return FaultPin{}
	}
	pin := FaultPin{FaultSeed: inj.Seed(), FaultRate: inj.Rate(), Retry: resilience.Tuning(o.MaxAttempts)}
	if o.SiteTimeout > 0 {
		pin.SiteTimeout = o.SiteTimeout.String()
	}
	return pin
}

// Summary renders the pin for a mismatch error. It is not String, so a
// struct that embeds the pin does not print as the pin alone.
func (p FaultPin) Summary() string {
	if p == (FaultPin{}) {
		return "no faults"
	}
	s := fmt.Sprintf("fault_seed=%d fault_rate=%g retry=%s", p.FaultSeed, p.FaultRate, p.Retry)
	if p.SiteTimeout != "" {
		s += " site_timeout=" + p.SiteTimeout
	}
	return s
}

// watchdogError is the non-transient failure a tripped site watchdog
// injects into every further fetch: the executor does not retry it, so
// the flow degrades at the next gate and the site finishes immediately.
type watchdogError struct {
	host   string
	budget time.Duration
}

func (e watchdogError) Error() string {
	return fmt.Sprintf("crawler: %s: site exceeded %v watchdog budget", e.host, e.budget)
}

// faultTransport is one site crawl's network path: injected faults from
// the injector, DNS flakiness through a hooked resolver, retry +
// backoff + per-host circuit breakers from the resilience executor, and
// the per-site watchdog deadline. All state is scoped to the one crawl,
// which is what keeps parallel and serial runs identical. A nil
// *faultTransport is the fault-free path.
type faultTransport struct {
	ctx      context.Context
	inj      *faultsim.Injector
	exec     *resilience.Executor
	resolver *dnssim.Resolver
	hits     map[string]int // per-host non-DNS fetch attempts
	total    int            // every attempt, for SiteCrawl.Attempts
	obs      *obs.Run       // telemetry side channel (nil = unobserved)

	// deadline is the watchdog cutoff on the executor's clock; zero
	// means no watchdog. timedOut latches once the deadline passes.
	deadline time.Time
	budget   time.Duration
	timedOut bool
}

// newFaultTransport builds a transport for one site crawl under the
// ecosystem's injector. Without an injector it returns nil (no
// transport, no overhead, byte-identical fault-free records): nothing
// can fail, and nothing advances the site's virtual clock, so a site
// budget could never trip.
func newFaultTransport(ctx context.Context, eco *webgen.Ecosystem, opts Options) *faultTransport {
	inj := eco.Faults
	if inj == nil {
		return nil
	}
	t := &faultTransport{
		ctx:  ctx,
		inj:  inj,
		exec: resilience.NewExecutor(opts.MaxAttempts, nil, inj.Seed()),
		hits: map[string]int{},
		obs:  opts.Obs,
	}
	t.exec.Obs = opts.Obs
	hook := inj.DNSHook()
	if o := opts.Obs; o != nil {
		inner := hook
		hook = func(host string, attempt int) error {
			err := inner(host, attempt)
			if err != nil {
				o.CountKind(obs.MetricFaultInjected, string(faultsim.KindDNS), 1)
			}
			return err
		}
	}
	t.resolver = dnssim.NewResolver(eco.Zone, hook)
	if opts.SiteTimeout > 0 {
		t.budget = opts.SiteTimeout
		t.deadline = t.exec.Clock.Now().Add(opts.SiteTimeout)
	}
	return t
}

// watchdogErr reports whether the site's budget is spent, latching the
// timeout flag the outcome override reads after the flow finishes.
func (t *faultTransport) watchdogErr(host string) error {
	if t.deadline.IsZero() || t.exec.Clock.Now().Before(t.deadline) {
		return nil
	}
	t.timedOut = true
	return watchdogError{host: host, budget: t.budget}
}

// Fetch attempts delivery to host under the retry/breaker budget and
// the site watchdog.
func (t *faultTransport) Fetch(host string) error {
	if err := t.watchdogErr(host); err != nil {
		return err
	}
	return t.exec.DoContext(t.ctx, host, func() error {
		// The previous attempt's fault delay or backoff may have spent
		// the site's budget; a watchdog error is not transient, so the
		// executor stops retrying immediately.
		if err := t.watchdogErr(host); err != nil {
			return err
		}
		t.total++
		// DNS leg: flaky resolution fails before any connection.
		if _, err := t.resolver.Lookup(host); err != nil {
			return err
		}
		t.hits[host]++
		f := t.inj.Check(host, t.hits[host])
		if f == nil {
			return nil
		}
		t.obs.CountKind(obs.MetricFaultInjected, string(f.Kind), 1)
		budget := resilience.AttemptTimeout
		switch f.Kind {
		case faultsim.KindSlow:
			if f.Delay <= budget {
				// Slow but within the attempt budget: the fetch
				// succeeds, it just costs time.
				t.exec.Clock.Sleep(f.Delay)
				return nil
			}
			t.exec.Clock.Sleep(budget)
			return fmt.Errorf("crawler: %s: response exceeded %v attempt budget: %w", host, budget, f)
		case faultsim.KindTimeout:
			t.exec.Clock.Sleep(budget)
			return f
		case faultsim.KindPanic:
			// The injected crash: the worker's recover quarantines
			// this site and the study continues.
			panic(fmt.Sprintf("crawler: injected panic fetching %s: %v", host, f))
		default:
			return f
		}
	})
}

// account stamps the runtime's counters onto a finished site record.
// Safe on a nil receiver (the fault-free path), where it must leave the
// record untouched so default datasets stay byte-identical.
func (t *faultTransport) account(c *SiteCrawl, b *browser.Browser) {
	if t == nil {
		return
	}
	c.Attempts = t.total
	c.Retries = t.exec.Retries
	c.FailedFetches = b.FailedFetches
	t.obs.Count(obs.MetricFetchAttempts, int64(t.total))
	t.obs.Count(obs.MetricFetchRetries, int64(t.exec.Retries))
}

// crawlSite runs one site through the flow into r, which holds the
// site's index and is otherwise zero, so the site's record is built in
// place. A panic anywhere in the flow is recovered here: the site is
// recorded as OutcomeCrashed with whatever captures the browser holds,
// a diagnostics bundle goes to the quarantine, and the crawl continues
// with the next site.
func crawlSite(b *browser.Browser, eco *webgen.Ecosystem, s *site.Site, rt *faultTransport, q *Quarantine, r *SiteResult) {
	var mbox mailbox.Mailbox
	defer func() {
		if p := recover(); p != nil {
			crashedSite(b, eco, s, rt, &mbox, q, StageCrawl, p, r)
		}
	}()
	crawlOne(b, s, &eco.Persona, &mbox, rt, &r.Crawl)
	if rt != nil && rt.timedOut {
		// The watchdog cut the flow off mid-step; whatever outcome the
		// degraded flow reached (partial, unreachable) is really a
		// budget exhaustion, recorded as such with partial captures.
		r.Crawl.Outcome = OutcomeTimeout
	}
	r.Mail, r.Blocked, r.Records = mbox.Messages, b.Blocked, len(r.Crawl.Records)
}

// crashedSite packages a panicked site into r: the quarantined record
// keeps the partial captures and side effects gathered before the
// crash, so the bundle is enough to re-run and debug the site in
// isolation.
func crashedSite(b *browser.Browser, eco *webgen.Ecosystem, s *site.Site, rt *faultTransport, mbox *mailbox.Mailbox, q *Quarantine, stage string, panicked any, r *SiteResult) {
	r.Crawl = SiteCrawl{
		Domain:       s.Domain,
		Rank:         s.Rank,
		Outcome:      OutcomeCrashed,
		Obstacle:     s.Obstacle,
		EmailConfirm: s.EmailConfirm,
		BotDetection: s.BotDetection,
		Records:      b.Records,
	}
	rt.account(&r.Crawl, b)
	var faultSeed uint64
	if rt != nil {
		faultSeed = rt.inj.Seed()
	}
	q.Add(BundleFor(stage, &r.Crawl, eco.Config.Seed, faultSeed, panicked))
	r.Mail, r.Blocked, r.Records = mbox.Messages, b.Blocked, len(r.Crawl.Records)
}
