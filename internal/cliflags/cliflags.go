// Package cliflags is the one place a study's knobs are parsed,
// validated, defaulted and turned into run options. One Common struct
// registers the study-shaping flags (seed, browser, fault injection,
// the crash-only runtime's knobs) and the telemetry outputs (-metrics,
// -trace, -pprof), and turns them into a validated piileak.Config, a
// resolved browser profile, and the RunOption list a Study.Run call
// consumes. piicrawl and piirepro register it as their flags, and
// piiserve maps each job spec onto it, so every entry point accepts
// the same inputs, refuses the same ones with the same validator, and
// runs them with the same options.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux's profile endpoints
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"piileak"
	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/faultsim"
	"piileak/internal/obs"
	"piileak/internal/pipeline"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// Common is the flag set shared by the piileak CLIs. Register binds
// every field to its flag; the zero value of each field is the flag's
// default.
type Common struct {
	// Seed is the ecosystem seed; Small selects the scaled-down web.
	Seed  uint64
	Small bool
	// Browser names the collection profile (see ResolveProfile).
	Browser string
	// Universe extends the study to that many total sites: the
	// calibrated study core stays byte-identical and the rest is a
	// lazily generated ranked tail, derived per site from (seed, rank).
	// 0 runs the study core alone.
	Universe int
	// Workers parallelizes the run; 0 is serial. A dataset crawl runs
	// Workers crawl workers. A study runs one pool of workers, each
	// crawling, scanning and folding its own sites: the larger of
	// Workers and DetectWorkers, at least one.
	Workers int
	// DetectWorkers raises a study's worker count to at least its
	// value; 0 follows Workers. Each worker scans through a Scanner of
	// its own over one shared engine, so a worker costs scratch
	// buffers, not a candidate-set compile.
	DetectWorkers int

	// Faults is the fraction of hosts made faulty (0 disables
	// injection); FaultSeed overrides the injection seed (default: the
	// ecosystem seed); Retries caps fetch attempts under faults.
	Faults    float64
	FaultSeed uint64
	Retries   int

	// SiteTimeout is the per-site watchdog budget on the run's clock;
	// QuarantineDir collects diagnostics bundles for panicked sites;
	// QuarantineMax caps the bundle files kept on disk (oldest evicted
	// first, 0 = unbounded); Only restricts the run to a comma-separated
	// site subset.
	SiteTimeout   time.Duration
	QuarantineDir string
	QuarantineMax int
	Only          string

	// Checkpoint persists per-site progress; Resume continues a killed
	// run from that file.
	Checkpoint string
	Resume     bool

	// Shards shards the study into K failure domains; Shard selects one
	// ("i" with -shards, or the self-contained "i/K" form) to run as a
	// single worker; Supervise runs all K under the self-healing
	// supervisor and merges. ShardDir is the shard working directory
	// (one checkpoint or sealed result per shard, and the report).
	// Reexec makes the supervisor run workers as re-execed
	// subprocesses, watched by the StallTimeout checkpoint-growth
	// watchdog; MaxRestarts caps per-shard restarts (0 = default 2,
	// negative = never restart).
	Shards       int
	Shard        string
	Supervise    bool
	ShardDir     string
	Reexec       bool
	StallTimeout time.Duration
	MaxRestarts  int

	// Metrics and Trace name telemetry output files (deterministic
	// metrics JSON, stage-trace JSONL). Setting either attaches an
	// observer to the run. Pprof, when non-empty, serves
	// net/http/pprof on that address for the process's lifetime.
	Metrics string
	Trace   string
	Pprof   string
}

// Register binds the shared flags on fs and returns the struct their
// values land in. Call before fs.Parse.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.Uint64Var(&c.Seed, "seed", 2021, "ecosystem seed")
	fs.BoolVar(&c.Small, "small", false, "use the scaled-down ecosystem")
	fs.StringVar(&c.Browser, "browser", "firefox", "collection browser: firefox, chrome, opera, safari, firefox-etp, brave")
	fs.IntVar(&c.Universe, "universe", 0, "extend the study to N total sites with a lazily generated ranked tail (0 = study core only)")
	fs.IntVar(&c.Workers, "workers", 0, "parallel workers, each crawling and scanning its own sites (0 = serial)")
	fs.IntVar(&c.DetectWorkers, "detect-workers", 0, "run a study on at least this many workers (0 = follow -workers)")
	fs.Float64Var(&c.Faults, "faults", 0, "fraction of hosts made faulty (0 disables fault injection)")
	fs.Uint64Var(&c.FaultSeed, "fault-seed", 0, "fault-injection seed (default: the ecosystem seed)")
	fs.IntVar(&c.Retries, "retries", 0, "max fetch attempts per request under faults (default 4)")
	fs.DurationVar(&c.SiteTimeout, "site-timeout", 0, "per-site watchdog budget on the run's clock (0 disables)")
	fs.StringVar(&c.QuarantineDir, "quarantine", "", "directory collecting diagnostics for panicked sites")
	fs.IntVar(&c.QuarantineMax, "quarantine-max", 0, "max quarantine bundle files kept on disk; oldest evicted first, recorded in the manifest (0 = unbounded)")
	fs.StringVar(&c.Only, "only", "", "comma-separated site domains to crawl (e.g. re-running quarantined sites)")
	fs.StringVar(&c.Checkpoint, "checkpoint", "", "write per-site progress to this file")
	fs.BoolVar(&c.Resume, "resume", false, "resume a previous run from -checkpoint")
	fs.IntVar(&c.Shards, "shards", 0, "shard the study into K independent failure domains (0 = unsharded)")
	fs.StringVar(&c.Shard, "shard", "", "run one shard worker: index i (with -shards), or the self-contained i/K form")
	fs.BoolVar(&c.Supervise, "supervise", false, "run all -shards workers under the self-healing supervisor and merge")
	fs.StringVar(&c.ShardDir, "shard-dir", "", "shard working directory (one checkpoint or sealed result per shard, and the report)")
	fs.BoolVar(&c.Reexec, "reexec", false, "supervisor runs shard workers as re-execed subprocesses")
	fs.DurationVar(&c.StallTimeout, "stall-timeout", 0, "kill a re-execed worker whose checkpoint stops growing for this long (0 disables)")
	fs.IntVar(&c.MaxRestarts, "max-restarts", 0, "per-shard restart budget (0 = default 2, negative = never restart)")
	fs.StringVar(&c.Metrics, "metrics", "", "write the run's deterministic metrics + manifest JSON to this file")
	fs.StringVar(&c.Trace, "trace", "", "write the run's stage-trace JSONL to this file")
	fs.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return c
}

// Validate rejects out-of-range values and contradictory flag
// combinations up front, before any ecosystem generation happens.
func (c *Common) Validate() error {
	if _, err := ResolveBrowser(c.Browser, nil); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("-workers %d is negative", c.Workers)
	}
	if c.Faults < 0 || c.Faults > 1 {
		return fmt.Errorf("-faults %v out of range [0, 1]", c.Faults)
	}
	if c.Retries < 0 {
		return fmt.Errorf("-retries %d is negative", c.Retries)
	}
	if c.SiteTimeout < 0 {
		return fmt.Errorf("-site-timeout %v is negative", c.SiteTimeout)
	}
	if c.QuarantineMax < 0 {
		return fmt.Errorf("-quarantine-max %d is negative", c.QuarantineMax)
	}
	if c.QuarantineMax > 0 && c.QuarantineDir == "" {
		return fmt.Errorf("-quarantine-max needs -quarantine")
	}
	if c.DetectWorkers < 0 {
		return fmt.Errorf("-detect-workers %d is negative", c.DetectWorkers)
	}
	if c.Universe < 0 {
		return fmt.Errorf("-universe %d is negative", c.Universe)
	}
	empty := func(domain string) bool { return strings.TrimSpace(domain) == "" }
	if c.Only != "" && slices.ContainsFunc(strings.Split(c.Only, ","), empty) {
		return fmt.Errorf("-only %q names an empty site domain", c.Only)
	}
	if c.Universe > 0 {
		if core := c.StudyConfig().Ecosystem.ShoppingSites; c.Universe < core {
			return fmt.Errorf("-universe %d is smaller than the %d-site study core", c.Universe, core)
		}
		if c.Only != "" {
			return fmt.Errorf("-universe and -only are contradictory: -only selects from the study core")
		}
	}
	// Sharded runs keep their checkpoints under -shard-dir, so -resume
	// stands alone there; everywhere else it needs -checkpoint.
	if c.Resume && c.Checkpoint == "" && !c.Supervise && c.Shard == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	return c.validateShards()
}

// validateShards enforces the sharded mode's flag algebra: every
// contradictory combination is a named error here instead of a
// confusing failure mid-run.
func (c *Common) validateShards() error {
	if c.Shards < 0 {
		return fmt.Errorf("-shards %d is negative", c.Shards)
	}
	_, _, isWorker, err := c.shardCoords()
	if err != nil {
		return err
	}
	if c.Supervise && isWorker {
		return fmt.Errorf("-supervise and -shard are exclusive: supervise the study or be one worker of it")
	}
	if c.Supervise && c.Shards == 0 {
		return fmt.Errorf("-supervise requires -shards")
	}
	if c.Shards > 0 && !c.Supervise && !isWorker {
		return fmt.Errorf("-shards %d needs a mode: -supervise to run them all, or -shard i to run one worker", c.Shards)
	}
	sharded := c.Supervise || isWorker
	if !sharded {
		if c.ShardDir != "" {
			return fmt.Errorf("-shard-dir is only meaningful with -shards")
		}
		if c.Reexec || c.StallTimeout != 0 || c.MaxRestarts != 0 {
			return fmt.Errorf("-reexec, -stall-timeout and -max-restarts are only meaningful with -supervise")
		}
		return nil
	}
	if c.ShardDir == "" {
		return fmt.Errorf("sharded runs need -shard-dir for their checkpoints, results and report")
	}
	if c.Only != "" {
		return fmt.Errorf("-shards and -only are contradictory: the shard plan partitions the full site universe")
	}
	if c.StallTimeout < 0 {
		return fmt.Errorf("-stall-timeout %v is negative", c.StallTimeout)
	}
	if c.Checkpoint != "" {
		return fmt.Errorf("sharded runs keep each shard's checkpoint under -shard-dir; drop -checkpoint")
	}
	if c.Supervise {
		if c.StallTimeout > 0 && !c.Reexec {
			return fmt.Errorf("-stall-timeout watches re-execed workers; add -reexec (in-process workers use -site-timeout)")
		}
		return nil
	}
	if c.Reexec || c.StallTimeout != 0 || c.MaxRestarts != 0 {
		return fmt.Errorf("-reexec, -stall-timeout and -max-restarts are supervisor flags; a -shard worker does not take them")
	}
	return nil
}

// shardCoords parses the -shard/-shards pair. The -shard flag accepts
// a bare index (scoped by -shards) or the self-contained "i/K" form; if
// both are given the K values must agree.
func (c *Common) shardCoords() (shard, shards int, ok bool, err error) {
	if c.Shard == "" {
		return 0, 0, false, nil
	}
	spec := c.Shard
	if i, k, found := strings.Cut(spec, "/"); found {
		shard, err = strconv.Atoi(strings.TrimSpace(i))
		if err == nil {
			shards, err = strconv.Atoi(strings.TrimSpace(k))
		}
		if err != nil {
			return 0, 0, false, fmt.Errorf("-shard %q: want i/K (e.g. 2/8)", spec)
		}
		if c.Shards > 0 && shards != c.Shards {
			return 0, 0, false, fmt.Errorf("-shard %s disagrees with -shards %d", spec, c.Shards)
		}
	} else {
		shard, err = strconv.Atoi(strings.TrimSpace(spec))
		if err != nil {
			return 0, 0, false, fmt.Errorf("-shard %q: want an index or i/K", spec)
		}
		if c.Shards == 0 {
			return 0, 0, false, fmt.Errorf("-shard %s needs -shards K (or use the i/K form)", spec)
		}
		shards = c.Shards
	}
	if shards < 1 {
		return 0, 0, false, fmt.Errorf("-shard %s: shard count %d must be >= 1", spec, shards)
	}
	if shard < 0 || shard >= shards {
		return 0, 0, false, fmt.Errorf("-shard %s: index %d out of range [0, %d)", spec, shard, shards)
	}
	return shard, shards, true, nil
}

// ShardCoords resolves the validated -shard worker coordinates;
// ok is false when the run is not a shard worker.
func (c *Common) ShardCoords() (shard, shards int, ok bool) {
	shard, shards, ok, err := c.shardCoords()
	if err != nil {
		return 0, 0, false
	}
	return shard, shards, ok
}

// ShardWorkerArgs builds the argv (minus argv[0]) that re-execs this
// run as the given shard's worker: the study-shaping flags replicated,
// the shard coordinates in self-contained i/K form, and none of the
// supervisor-only flags. The supervisor's subprocess mode feeds this to
// its own executable.
func (c *Common) ShardWorkerArgs(shard int) []string {
	args := []string{
		"-seed", strconv.FormatUint(c.Seed, 10),
		"-browser", c.Browser,
		"-shard", fmt.Sprintf("%d/%d", shard, c.Shards),
		"-shard-dir", c.ShardDir,
	}
	if c.Small {
		args = append(args, "-small")
	}
	if c.Universe > 0 {
		args = append(args, "-universe", strconv.Itoa(c.Universe))
	}
	if c.Workers != 0 {
		args = append(args, "-workers", strconv.Itoa(c.Workers))
	}
	if c.DetectWorkers != 0 {
		args = append(args, "-detect-workers", strconv.Itoa(c.DetectWorkers))
	}
	if c.Faults > 0 {
		args = append(args, "-faults", strconv.FormatFloat(c.Faults, 'g', -1, 64))
	}
	if c.FaultSeed != 0 {
		args = append(args, "-fault-seed", strconv.FormatUint(c.FaultSeed, 10))
	}
	if c.Retries > 0 {
		args = append(args, "-retries", strconv.Itoa(c.Retries))
	}
	if c.SiteTimeout > 0 {
		args = append(args, "-site-timeout", c.SiteTimeout.String())
	}
	if c.QuarantineDir != "" {
		args = append(args, "-quarantine", c.QuarantineDir)
	}
	if c.QuarantineMax > 0 {
		args = append(args, "-quarantine-max", strconv.Itoa(c.QuarantineMax))
	}
	return args
}

// StudyConfig builds the study configuration the flags describe. The
// browser profile is left at the default; resolve it against the
// generated ecosystem with ResolveProfile (the shielded profiles need
// the ecosystem's Brave shield list).
func (c *Common) StudyConfig() piileak.Config {
	cfg := piileak.DefaultConfig()
	if c.Small {
		cfg = piileak.SmallConfig(c.Seed)
	}
	cfg.Ecosystem.Seed = c.Seed
	cfg.Ecosystem.UniverseSize = c.Universe
	if c.Faults > 0 {
		cfg.Ecosystem.Faults = &faultsim.Config{Seed: c.FaultSeed, Rate: c.Faults}
	}
	return cfg
}

// EcosystemConfig is StudyConfig's webgen slice, for tools that crawl
// without building a Study.
func (c *Common) EcosystemConfig() webgen.Config {
	return c.StudyConfig().Ecosystem
}

// ResolveProfile maps the -browser name to its profile. The shielded
// profiles (firefox-etp, brave) are parameterized by the ecosystem's
// generated shield list, which is why this takes eco rather than
// running at flag-parse time.
func (c *Common) ResolveProfile(eco *webgen.Ecosystem) (browser.Profile, error) {
	return ResolveBrowser(c.Browser, eco)
}

// ResolveBrowser maps a collection-browser name to its profile — the
// single vocabulary every entry point resolves through. The shielded
// profiles take eco's shield list; a nil eco gives them none, which is
// enough for Validate to check the name before any ecosystem exists.
func ResolveBrowser(name string, eco *webgen.Ecosystem) (browser.Profile, error) {
	var shields map[string]bool
	if eco != nil {
		shields = eco.BraveShields
	}
	switch name {
	case "firefox":
		return browser.Firefox88(), nil
	case "chrome":
		return browser.Chrome93(), nil
	case "opera":
		return browser.Opera79(), nil
	case "safari":
		return browser.Safari14(), nil
	case "firefox-etp":
		return browser.Firefox88ETP(shields), nil
	case "brave":
		return browser.Brave129(shields), nil
	default:
		return browser.Profile{}, fmt.Errorf("unknown browser %q (want firefox, chrome, opera, safari, firefox-etp or brave)", name)
	}
}

// Runtime is the per-run state the flags materialize: the telemetry
// observer (when -metrics or -trace asked for one), the quarantine
// store and the -only site subset.
type Runtime struct {
	Observer   *obs.Run
	Quarantine *crawler.Quarantine
	Sites      []*site.Site
}

// Runtime builds the run state against the generated ecosystem.
func (c *Common) Runtime(eco *webgen.Ecosystem) (*Runtime, error) {
	rt := &Runtime{}
	if c.Metrics != "" || c.Trace != "" {
		rt.Observer = obs.NewRun()
	}
	if c.QuarantineDir != "" {
		q, err := crawler.NewQuarantine(c.QuarantineDir)
		if err != nil {
			return nil, err
		}
		q.SetLimit(c.QuarantineMax)
		rt.Quarantine = q
	}
	if c.Only != "" {
		sites, err := SelectSites(eco, c.Only)
		if err != nil {
			return nil, err
		}
		rt.Sites = sites
	}
	return rt, nil
}

// RunOptions assembles the Study.Run option list the flags describe.
// progress, when non-nil, receives pipeline events (see
// ProgressPrinter); prog names the CLI for the resume banner.
func (c *Common) RunOptions(rt *Runtime, prog string, progress func(pipeline.Event)) []piileak.RunOption {
	opts := []piileak.RunOption{piileak.WithWorkers(c.Workers, c.EffectiveDetectWorkers())}
	if c.SiteTimeout > 0 {
		opts = append(opts, piileak.WithSiteTimeout(c.SiteTimeout))
	}
	if c.Retries > 0 {
		opts = append(opts, piileak.WithMaxAttempts(c.Retries))
	}
	if rt.Quarantine != nil {
		opts = append(opts, piileak.WithQuarantine(rt.Quarantine))
	}
	if rt.Sites != nil {
		opts = append(opts, piileak.WithSource(site.Slice(rt.Sites)))
	}
	if c.Checkpoint != "" {
		opts = append(opts, piileak.WithCheckpoint(c.Checkpoint))
	}
	if c.Resume {
		opts = append(opts, piileak.WithResume(ResumeBanner(prog, os.Stderr)))
	}
	if rt.Observer != nil {
		opts = append(opts, piileak.WithObserver(rt.Observer))
	}
	if progress != nil {
		opts = append(opts, piileak.WithProgress(progress))
	}
	return opts
}

// EffectiveDetectWorkers resolves -detect-workers: its value when
// given, else -workers. A study runs the larger of it and -workers as
// its workers.
func (c *Common) EffectiveDetectWorkers() int {
	if c.DetectWorkers > 0 {
		return c.DetectWorkers
	}
	return c.Workers
}

// CrawlerOptions assembles the raw crawler options for tools that run
// the crawl stage alone (piicrawl's dataset mode). OnResume is only
// set when -resume is given — Options.Validate rejects a resume
// callback on a non-resuming run.
func (c *Common) CrawlerOptions(rt *Runtime, prog string) crawler.Options {
	copts := crawler.Options{
		Workers:        c.Workers,
		MaxAttempts:    c.Retries,
		SiteTimeout:    c.SiteTimeout,
		Quarantine:     rt.Quarantine,
		CheckpointPath: c.Checkpoint,
		Resume:         c.Resume,
		Obs:            rt.Observer,
	}
	if rt.Sites != nil {
		copts.Source = site.Slice(rt.Sites)
	}
	if c.Resume {
		copts.OnResume = ResumeBanner(prog, os.Stderr)
	}
	return copts
}

// SelectSites resolves a -only domain list against the ecosystem,
// preserving ecosystem site order.
func SelectSites(eco *webgen.Ecosystem, only string) ([]*site.Site, error) {
	want := map[string]bool{}
	for _, d := range strings.Split(only, ",") {
		if d = strings.TrimSpace(d); d != "" {
			want[d] = true
		}
	}
	var sel []*site.Site
	for _, s := range eco.Sites {
		if want[s.Domain] {
			sel = append(sel, s)
			delete(want, s.Domain)
		}
	}
	if len(want) > 0 {
		var missing []string
		for d := range want {
			missing = append(missing, d)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("-only: unknown site domains: %s", strings.Join(missing, ", "))
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("-only: no sites selected")
	}
	return sel, nil
}

// WriteTelemetry flushes the observer's outputs to the -metrics and
// -trace files. A nil observer (neither flag given) writes nothing.
func (c *Common) WriteTelemetry(rt *Runtime) error {
	if rt == nil || rt.Observer == nil {
		return nil
	}
	if c.Metrics != "" {
		if err := crawler.WriteFileAtomic(c.Metrics, rt.Observer.WriteMetrics); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
	}
	if c.Trace != "" {
		if err := crawler.WriteFileAtomic(c.Trace, rt.Observer.WriteTrace); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	return nil
}

// StartPprof serves net/http/pprof's default-mux endpoints on addr (a
// -pprof flag's value) for the process's lifetime. It binds
// synchronously — a bad address fails here, not in a goroutine's logs —
// and never returns on the serving path. No-op when addr is empty.
func StartPprof(prog, addr string) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", prog, ln.Addr()) //lint:allow piilog a TCP listen address is not persona PII
	//lint:allow goroleak the pprof server serves for the process lifetime by design
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", prog, err)
		}
	}()
	return nil
}

// ProgressPrinter returns the CLIs' shared progress line: crawl and
// detect counters plus the cumulative leak count, printed every
// max(25, total/100) detections and at the end. That is every 25 sites
// of the paper's 404, and about a hundred lines for a run of any larger
// universe.
func ProgressPrinter(prog string, w io.Writer) func(pipeline.Event) {
	crawled := 0
	return func(ev pipeline.Event) {
		if ev.Stage == "crawl" {
			crawled = ev.Done
			return
		}
		if ev.Done%max(25, ev.Total/100) == 0 || ev.Done == ev.Total {
			fmt.Fprintf(w, "%s: crawl %d/%d  detect %d/%d  leaks %d\n",
				prog, crawled, ev.Total, ev.Done, ev.Total, ev.Leaks)
		}
	}
}

// ResumeBanner returns the resume callback announcing what the
// checkpoint contributed.
func ResumeBanner(prog string, w io.Writer) func(crawler.ResumeSummary) {
	return func(rs crawler.ResumeSummary) {
		fmt.Fprintf(w, "%s: resume: %d sites loaded from checkpoint, %d torn records dropped\n",
			prog, rs.Completed, rs.TornRecords)
	}
}

// InstallSignalHandler wires crash-only shutdown: the first
// SIGINT/SIGTERM cancels the run and bounds the drain on the wall
// clock; a second signal (or a drain overrun) hard-exits 130.
func InstallSignalHandler(prog string, cancel context.CancelFunc) {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintf(os.Stderr, "%s: interrupted: draining workers and flushing the checkpoint (signal again to hard-exit)\n", prog)
		cancel()
		// Shutdown grace is genuinely wall time — a hung worker must
		// not turn Ctrl-C into an indefinite hang. It must also be
		// detached: the caller's ctx is the one we just cancelled.
		//lint:allow ctxflow the grace period outlives the ctx this handler cancels
		grace, stop := context.WithTimeout(context.Background(), 30*time.Second) //lint:allow detrand CLI shutdown grace is wall time by design
		defer stop()
		select {
		case <-sigc:
			fmt.Fprintf(os.Stderr, "%s: second signal: hard exit\n", prog)
		case <-grace.Done():
			fmt.Fprintf(os.Stderr, "%s: drain exceeded 30s grace: hard exit\n", prog)
		}
		os.Exit(130)
	}()
}

// ExitInterrupted reports a cancelled run. With a checkpoint the exit
// is the crash-only success path: progress is on disk and resumable.
func ExitInterrupted(prog, checkpoint string) {
	if checkpoint != "" {
		fmt.Fprintf(os.Stderr, "%s: interrupted: checkpoint %s is valid; continue with -resume -checkpoint %s\n",
			prog, checkpoint, checkpoint)
		os.Exit(0)
	}
	fmt.Fprintf(os.Stderr, "%s: interrupted: no checkpoint, progress lost (use -checkpoint for resumable runs)\n", prog)
	os.Exit(1)
}

// PrintQuarantine lists quarantined sites; the study still succeeded,
// so this is a report, not an error.
func PrintQuarantine(prog string, q *crawler.Quarantine) {
	if q.Len() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %d site(s) quarantined (see %s): %s\n",
		prog, q.Len(), q.ManifestPath(), strings.Join(q.Sites(), ", "))
	fmt.Fprintf(os.Stderr, "%s: re-run them individually with -only %s\n", prog, strings.Join(q.Sites(), ","))
}
