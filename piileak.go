// Package piileak reproduces the CoNEXT 2021 study "Alternative to
// third-party cookies: Investigating persistent PII leakage-based web
// tracking" (Dao & Fukuda) as a runnable system: a calibrated synthetic
// web of shopping sites and trackers, the §3.2 crawl, the §4 leak
// detection pipeline, the §5 persistent-tracking classification, the §6
// policy audit and the §7 countermeasure evaluations.
//
// Quick start:
//
//	study, err := piileak.NewStudy(piileak.DefaultConfig())
//	if err != nil { ... }
//	if err := study.Run(context.Background()); err != nil { ... }
//	fmt.Println(report of study.Analysis.Headline())
//
// Every run streams: each site's captures are scanned as the crawl
// finishes it and released right after detection, so peak memory is
// bounded by the captures in flight. Run takes functional options:
// WithWorkers(4, 4) runs four workers, WithCheckpoint(path) makes
// the run resumable, and WithObserver(run) attaches an obs.Run that
// collects deterministic metrics and stage traces without changing a
// single output byte. RunSharded runs the same study as K supervised
// shard workers and merges them back byte-identically; RunShardWorker
// is one such worker, as piicrawl's re-execed shard processes run it.
//
// Every knob has one setter. What the study is — the ecosystem's seed,
// scale, universe size and fault injection, the candidate depth, the
// browser — is Config; how one run executes — parallelism, site
// subset, checkpoint, observer, attempt budget, site timeout — is a
// RunOption. The CLIs and piiserve's job specs set both through
// internal/cliflags.
//
// Every experiment from the paper's evaluation is registered in
// Experiments(); cmd/piirepro runs them all.
package piileak

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/countermeasure"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/obs"
	"piileak/internal/pii"
	"piileak/internal/pipeline"
	"piileak/internal/policy"
	"piileak/internal/shard"
	"piileak/internal/site"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// Config is what a study is: its synthetic web, candidate set and
// collection browser. How one run executes is a RunOption.
type Config struct {
	// Ecosystem parameterizes the synthetic web (webgen.DefaultConfig
	// reproduces the paper's population).
	Ecosystem webgen.Config
	// CandidateDepth is the transform-chain depth of the detection
	// candidate set (§3.1; default 2, covering every chain in the
	// paper's Table 2).
	CandidateDepth int
	// Browser is the collection profile (§3.2 used vanilla Firefox 88).
	Browser browser.Profile
}

// DefaultConfig reproduces the paper's setup.
func DefaultConfig() Config {
	return Config{
		Ecosystem:      webgen.DefaultConfig(),
		CandidateDepth: 2,
		Browser:        browser.Firefox88(),
	}
}

// SmallConfig is a scaled-down configuration for examples and quick
// experimentation.
func SmallConfig(seed uint64) Config {
	return Config{
		Ecosystem:      webgen.SmallConfig(seed),
		CandidateDepth: 2,
		Browser:        browser.Firefox88(),
	}
}

// Study is one full reproduction run.
type Study struct {
	Config Config

	// Eco is the generated synthetic web.
	Eco *webgen.Ecosystem
	// Engine is the compiled two-phase detection engine: the immutable,
	// shareable phase-1 state (candidate automaton, PSL, CNAME
	// classifier) every run mode and detect worker scans through. It
	// comes out of the process-wide build cache, so studies sharing a
	// persona and candidate config share one compile.
	Engine *detect.Engine
	// Candidates is the persona's compiled token set (the Engine's).
	Candidates *pii.CandidateSet

	// Dataset, Leaks and Analysis are populated by Run or RunSharded.
	// The dataset is thin: crawl outcomes, mailbox and block counters
	// survive, the captured records were released after detection.
	Dataset  *crawler.Dataset
	Leaks    []core.Leak
	Analysis *core.Analysis

	// Result is the shared store every run path populates: the §4.2
	// analysis, the incremental §5 tracking index, the §6 audit sender
	// set and the §7.2 request index, all built in one pass. Tracking,
	// PolicyAudit and EvaluateBlocklists are views over it.
	Result *pipeline.Result

	// replay holds the crawl knobs the run recorded — source, retry
	// policy, site timeout — for the experiments that rescan raw
	// captures by replaying the crawl (replayCaptures).
	replay crawler.Options
}

// NewStudy generates the ecosystem and builds the detection machinery.
func NewStudy(cfg Config) (*Study, error) {
	if cfg.CandidateDepth == 0 {
		cfg.CandidateDepth = 2
	}
	if cfg.Browser.Name == "" {
		cfg.Browser = browser.Firefox88()
	}
	eco, err := webgen.Generate(cfg.Ecosystem)
	if err != nil {
		return nil, err
	}
	cname := dnssim.NewClassifier(eco.Zone)
	eng, err := detect.NewEngine(eco.Persona, cname, detect.Config{
		Candidates: pii.CandidateConfig{MaxDepth: cfg.CandidateDepth},
	})
	if err != nil {
		return nil, err
	}
	return &Study{
		Config:     cfg,
		Eco:        eco,
		Engine:     eng,
		Candidates: eng.Candidates(),
	}, nil
}

// RunOption configures one Study.Run call. Options apply in order over
// the zero option set: both stages serial, the ecosystem's universe, no
// checkpoint, no observer. Run skips nil options.
type RunOption func(*runConfig)

// runConfig is the resolved option set a Run call executes under.
type runConfig struct {
	opts pipeline.Options
}

// WithStream returns nil, an option Run skips: every run already
// releases per-site captures right after detection. It remains only for
// callers written when a run kept its captures, and goes once none is
// left.
func WithStream() RunOption { return nil }

// WithWorkers sizes the run's one pool of workers, each crawling,
// scanning and folding its own sites: max(1, crawl, detect) of them, so
// values <= 1 run serially. Results are byte-identical at any setting.
func WithWorkers(crawl, detect int) RunOption {
	return func(rc *runConfig) {
		rc.opts.Workers = crawl
		rc.opts.DetectWorkers = detect
	}
}

// WithCheckpoint persists per-site progress to path so an interrupted
// run can continue with WithResume.
func WithCheckpoint(path string) RunOption {
	return func(rc *runConfig) { rc.opts.CheckpointPath = path }
}

// WithResume loads completed sites from the WithCheckpoint file instead
// of re-crawling them. onResume, when non-nil, receives the loaded
// checkpoint's summary before crawling begins.
func WithResume(onResume func(crawler.ResumeSummary)) RunOption {
	return func(rc *runConfig) {
		rc.opts.Resume = true
		rc.opts.OnResume = onResume
	}
}

// WithObserver attaches a telemetry run: deterministic metrics, stage
// spans and the run manifest (internal/obs). Observation is a side
// channel — leak output and every table stay byte-identical with it on
// or off.
func WithObserver(o *obs.Run) RunOption {
	return func(rc *runConfig) { rc.opts.Obs = o }
}

// WithSiteTimeout caps each site's crawl budget on the virtual clock of
// a fault-injected run; sites over budget are recorded as
// OutcomeTimeout with their partial captures. It acts only under fault
// injection: without faults nothing advances a site's clock.
func WithSiteTimeout(d time.Duration) RunOption {
	return func(rc *runConfig) { rc.opts.SiteTimeout = d }
}

// WithQuarantine collects diagnostics bundles for sites whose crawl or
// detection panicked; the study continues without them.
func WithQuarantine(q *crawler.Quarantine) RunOption {
	return func(rc *runConfig) { rc.opts.Quarantine = q }
}

// WithSource supplies the run's site population: a materialized subset
// as site.Slice(sites) (re-running quarantined domains, bisecting
// failures) or a lazy population whose sites materialize one at a time
// as the crawl reaches them, so peak site memory is bounded by the
// captures in flight, not the population's length.
func WithSource(src site.Source) RunOption {
	return func(rc *runConfig) { rc.opts.Source = src }
}

// WithMaxAttempts caps the tries per fetch under fault injection
// (1 = no retry); n <= 0 keeps the default of 4.
func WithMaxAttempts(n int) RunOption {
	return func(rc *runConfig) { rc.opts.MaxAttempts = n }
}

// Event is one progress tick from a pipeline stage, re-exported so
// WithProgress callers outside this module's internals can name it.
type Event = pipeline.Event

// WithProgress receives per-stage completion events; it is never called
// concurrently.
func WithProgress(fn func(Event)) RunOption {
	return func(rc *runConfig) { rc.opts.Progress = fn }
}

// Run executes the §3.2 crawl and the §4 detection over every site of
// the ecosystem's universe (Config.Ecosystem.UniverseSize, under its
// fault injection) as one streaming pass, populating Dataset (thin),
// Leaks, Analysis and the shared Result store. Options select
// parallelism, a site subset, checkpointing, observation and the
// crash-only runtime's knobs; contradictory combinations are rejected
// up front (pipeline.Options.Validate). Cancelling ctx stops the crawl
// between sites and surfaces ctx's error.
func (s *Study) Run(ctx context.Context, options ...RunOption) error {
	var rc runConfig
	for _, opt := range options {
		if opt != nil {
			opt(&rc)
		}
	}
	opts := rc.opts
	if err := opts.Validate(); err != nil {
		return err
	}
	if o := opts.Obs; o != nil {
		sites := s.Eco.Universe().Len()
		if opts.Source != nil {
			sites = opts.Source.Len()
		}
		o.SetInfo(s.runInfo(sites, opts.Workers, opts.DetectWorkers))
	}
	res, err := pipeline.Run(ctx, s.Eco, s.Config.Browser, s.Engine, opts)
	if err != nil {
		return err
	}
	s.adopt(res, opts.Source, opts.Options)
	return nil
}

// RunSharded executes the study as a supervised sharded run: the site
// universe is partitioned into opts.Shards rank-interleaved failure
// domains, each crawled by an independently-checkpointed worker under
// restart supervision, and the shards' sealed checkpoints are verified
// and merged back into the study. With every shard completing, Leaks,
// Analysis and every table are byte-identical to an unsharded run; when
// a shard exhausts its retry budget the study holds the partial merge
// and the returned report lists exactly what is missing
// (Report.Partial, Report.Missing).
func (s *Study) RunSharded(ctx context.Context, opts shard.Options) (*shard.Report, error) {
	if o := opts.Crawl.Obs; o != nil {
		info := s.runInfo(s.Eco.Universe().Len(), opts.Workers, opts.DetectWorkers)
		info.Shards = opts.Shards
		o.SetInfo(info)
	}
	res, report, err := shard.Supervise(ctx, s.Eco, s.Config.Browser, s.Engine, opts)
	if err != nil {
		return nil, err
	}
	// Shard workers walk the whole universe, whatever Crawl.Source says.
	s.adopt(res, nil, opts.Crawl)
	return report, nil
}

// RunShardWorker runs one shard worker of a sharded study, as a
// re-execed piicrawl -shard i/K process does: crawl + detect over the
// shard's rank-interleaved slice of the universe, checkpointed so a
// restart resumes, ending when the checkpoint is sealed into the
// shard's result file, whose path it returns. RunSharded's verified
// merge consumes that file; the study's Leaks and Analysis stay unset.
// When cfg.Options.Obs is set, its run manifest is scoped to the shard:
// the shard's site count and its "i/K" label.
func (s *Study) RunShardWorker(ctx context.Context, cfg shard.WorkerConfig) (string, error) {
	if o := cfg.Options.Obs; o != nil {
		plan, err := shard.NewPlan(s.Eco, cfg.Shards)
		if err != nil {
			return "", err
		}
		info := s.runInfo(plan.Size(cfg.Shard), cfg.Workers, cfg.DetectWorkers)
		info.Shards = cfg.Shards
		info.Shard = fmt.Sprintf("%d/%d", cfg.Shard, cfg.Shards)
		o.SetInfo(info)
	}
	return shard.RunWorker(ctx, s.Eco, s.Config.Browser, s.Engine, cfg)
}

// runInfo builds the run manifest's identity block — the one place Run,
// RunSharded and RunShardWorker stamp it: the ecosystem and fault seeds,
// the browser, the site population and both stages' parallelism.
// Sharded callers add the shard scope.
func (s *Study) runInfo(sites, crawlWorkers, detectWorkers int) obs.RunInfo {
	info := obs.RunInfo{
		EcoSeed:       s.Eco.Config.Seed,
		Browser:       s.Config.Browser.Name + " " + s.Config.Browser.Version,
		Sites:         sites,
		CrawlWorkers:  crawlWorkers,
		DetectWorkers: detectWorkers,
	}
	if f := s.Eco.Faults; f != nil {
		info.FaultSeed = f.Seed()
	}
	return info
}

// adopt populates the study from a finished run's result store and
// records the crawl knobs replayCaptures re-runs: the site source (nil
// is the universe), attempt budget and site timeout.
func (s *Study) adopt(res *pipeline.Result, src site.Source, crawl crawler.Options) {
	s.Result = res
	s.Dataset = res.Dataset
	s.Leaks = res.Leaks
	s.Analysis = res.Analysis
	s.replay = crawler.Options{Source: src, MaxAttempts: crawl.MaxAttempts, SiteTimeout: crawl.SiteTimeout}
}

// TotalRecords reports the captured request count, counted before the
// captures were released; zero before Run.
func (s *Study) TotalRecords() int {
	if err := s.mustRun(); err != nil {
		return 0
	}
	return s.Result.TotalRecords
}

// mustRun guards accessors that need Run's outputs.
func (s *Study) mustRun() error {
	if s.Result == nil {
		return fmt.Errorf("piileak: Run the study first")
	}
	return nil
}

// Tracking runs the §5.2 persistent-tracking classification, served
// from the result store's incremental index.
func (s *Study) Tracking() (*tracking.Classification, error) {
	if err := s.mustRun(); err != nil {
		return nil, err
	}
	return s.Result.Tracking.Classification(), nil
}

// PolicyAudit runs the §6 disclosure audit over the detected senders,
// taken from the result store's accumulated sender set.
func (s *Study) PolicyAudit() (policy.Table3, error) {
	if err := s.mustRun(); err != nil {
		return policy.Table3{}, err
	}
	var out []*site.Site
	for _, st := range s.Eco.Sites {
		if s.Result.Senders[st.Domain] {
			out = append(out, st)
		}
	}
	return policy.Audit(out), nil
}

// EvaluateBrowsers runs the §7.1 browser comparison. It is
// intentionally not mustRun-guarded: the evaluation re-crawls the
// ecosystem's sender sites per browser profile itself, so it depends
// only on the generated ecosystem, never on this study's crawl, leaks
// or analysis — calling it before Run is valid and produces the same
// result as calling it after.
func (s *Study) EvaluateBrowsers() []countermeasure.BrowserResult {
	return countermeasure.EvaluateBrowsers(s.Eco, s.Config.Browser, countermeasure.Profiles(s.Eco))
}

// EvaluateBlocklists runs the §7.2 filter-list evaluation.
func (s *Study) EvaluateBlocklists() (*countermeasure.Table4, error) {
	if err := s.mustRun(); err != nil {
		return nil, err
	}
	lists, err := countermeasure.ParseLists(s.Eco.EasyListText, s.Eco.EasyPrivacyText)
	if err != nil {
		return nil, err
	}
	cls, err := s.Tracking()
	if err != nil {
		return nil, err
	}
	var trackers []string
	for _, tr := range cls.Trackers {
		trackers = append(trackers, tr.Receiver)
	}
	// The store's request index covers every leaky site — the only sites
	// whose initiator chains the evaluation walks — so the indexed path
	// reproduces the full-dataset result exactly.
	return countermeasure.EvaluateBlocklistsIndexed(s.Leaks, s.Result.Requests, lists, trackers), nil
}

// errReplayDone stops a replay early without failing it.
var errReplayDone = errors.New("replay done")

// replayCaptures gives experiment id the raw captures the run released:
// it re-crawls the run's sites serially with the knobs the run recorded
// and hands each site that completed its auth flow to visit, one at a
// time, retaining nothing. Only sites the study's dataset holds are
// visited — a partial sharded merge holds fewer than its source. The
// crawl is deterministic, so a replay that runs to completion must
// reproduce the run's record count, or the replay is an error. visit
// may return errReplayDone to stop early.
func (s *Study) replayCaptures(id string, visit func(*crawler.SiteCrawl) error) error {
	if err := s.mustRun(); err != nil {
		return err
	}
	crawls := s.Dataset.Crawls
	held, records := 0, 0
	//lint:allow ctxflow experiments take no ctx; the replay is a checkpoint-free serial re-crawl
	err := crawler.CrawlStream(context.Background(), s.Eco, s.Config.Browser, s.replay, func(r crawler.SiteResult) error {
		// Serial emissions arrive in site order, as the dataset lists
		// its crawls.
		if held == len(crawls) || crawls[held].Domain != r.Crawl.Domain {
			return nil
		}
		outcome := crawls[held].Outcome
		held++
		records += len(r.Crawl.Records)
		if outcome != crawler.OutcomeSuccess {
			return nil
		}
		return visit(&r.Crawl)
	})
	if errors.Is(err, errReplayDone) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: replaying the crawl: %w", id, err)
	}
	if held != len(crawls) || records != s.Result.TotalRecords {
		return fmt.Errorf("%s: the replayed crawl captured %d records over %d sites, the run %d over %d",
			id, records, held, s.Result.TotalRecords, len(crawls))
	}
	return nil
}

// WriteLeaksJSON exports the detected leak records as indented JSON for
// external analysis (spreadsheets, notebooks, diffing runs).
func (s *Study) WriteLeaksJSON(w io.Writer) error {
	if err := s.mustRun(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s.Leaks)
}
