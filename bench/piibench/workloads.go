package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"piileak"
	"piileak/internal/shard"
)

// workload is one set of inputs the benchmark runs. run measures it
// with cold processes of the built binaries and tracing off; trace
// replays the same inputs in-process with a timer at every layer
// boundary.
type workload struct {
	name  string
	run   func(context.Context, *env) (*outcome, error)
	trace func(*env) []traceStudy
}

// workloads in the order every round runs them. BENCHMARK.json and
// bench/README.md say why each was chosen.
var workloads = []*workload{
	{
		name:  "cold-cli",
		run:   runColdCLI,
		trace: traceColdCLI,
	},
	{
		name:  "universe",
		run:   runUniverse,
		trace: traceUniverse,
	},
	{
		name:  "shard-universe",
		run:   runShardUniverse,
		trace: traceShardUniverse,
	},
	{
		name:  "serve-mix",
		run:   runServeMix,
		trace: traceServeMix,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizes scale the workloads; -quick selects the self-test's sizes.
type sizes struct {
	units       int // fixed unit count per CLI workload; 0 runs for -seconds
	minUnits    int // fewest units a timed run measures
	setups      int // fresh set-up measurements per run
	universe    int // sites per universe unit
	shardSites  int // sites per shard-universe unit
	jobs        int // serve-mix submissions; 0 derives them from -seconds
	traceSample int // sites in the traced serial replay
	traceCkpt   int // sites in the traced checkpoint comparison
	traceShard  int // largest universe the traced shard and serve phases use
}

var (
	fullSizes  = sizes{minUnits: 3, setups: 5, universe: 200000, shardSites: 30000, traceSample: 2000, traceCkpt: 5000, traceShard: 20000}
	quickSizes = sizes{units: 2, setups: 2, universe: 5000, shardSites: 5000, jobs: 8, traceSample: 200, traceCkpt: 500, traceShard: 2000}
)

// env is what every workload run shares: where things live, the seed
// the inputs derive from, and the reference outputs computed so far.
type env struct {
	root    string // repository root: the binaries build from here
	bin     string // built piicrawl and piiserve
	work    string // scratch for this run's outputs, removed afterwards
	self    string // this executable, re-run for set-up measurements
	seed    uint64
	seconds float64
	sz      sizes
	tamper  bool
	refs    map[refKey][]byte
}

func (e *env) binary(name string) string { return filepath.Join(e.bin, name) }

// more reports whether a workload should start unit i after elapsed
// seconds: the fixed count under -quick, otherwise at least minUnits
// and then until the run has measured for -seconds.
func (e *env) more(i int, elapsed float64) bool {
	if e.sz.units > 0 {
		return i < e.sz.units
	}
	return i < e.sz.minUnits || elapsed < e.seconds
}

// cliConfig is the study configuration piicrawl builds from -seed and
// -universe (and -small) — what its first NewStudy call receives.
func cliConfig(seed uint64, universe int, small bool) piileak.Config {
	cfg := piileak.DefaultConfig()
	if small {
		cfg = piileak.SmallConfig(seed)
	}
	cfg.Ecosystem.Seed = seed
	cfg.Ecosystem.UniverseSize = universe
	return cfg
}

type refKey struct {
	seed  uint64
	small bool
}

// reference returns the in-process leak JSON for a study seed: NewStudy,
// Run(WithStream()), WriteLeaksJSON. It is also the expected output of
// every universe run of that seed, because the universe tail is
// study-neutral. Under -tamper-reference one byte is flipped, so every
// check against it must fail.
func (e *env) reference(ctx context.Context, seed uint64, small bool) ([]byte, error) {
	k := refKey{seed, small}
	if b, ok := e.refs[k]; ok {
		return b, nil
	}
	study, err := piileak.NewStudy(cliConfig(seed, 0, small))
	if err != nil {
		return nil, err
	}
	if err := study.Run(ctx, piileak.WithStream()); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := study.WriteLeaksJSON(&buf); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	if e.tamper && len(b) > 1 {
		b[len(b)/2] ^= 0x20
	}
	e.refs[k] = b
	return b, nil
}

// output is one program output file awaiting its correctness check.
type output struct {
	what string
	path string
	seed uint64
}

// checkOutputs compares each output file with the reference for its
// seed and removes it. The checks run after the timed units, so the
// in-process reference runs never overlap a measured process.
func (e *env) checkOutputs(ctx context.Context, o *outcome, outs []output) error {
	for _, out := range outs {
		got, err := os.ReadFile(out.path)
		if err != nil {
			o.problem("%s: %v", out.what, err)
			continue
		}
		e.checkBytes(ctx, o, out.what, got, out.seed, false)
		if err := os.Remove(out.path); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) checkBytes(ctx context.Context, o *outcome, what string, got []byte, seed uint64, small bool) {
	want, err := e.reference(ctx, seed, small)
	if err != nil {
		o.problem("%s: reference: %v", what, err)
		return
	}
	if !bytes.Equal(got, want) {
		o.problem("%s: leak JSON differs from the in-process reference for seed %d (%d vs %d bytes)", what, seed, len(got), len(want))
	}
}

// measureSetup runs fresh piibench children that each time the
// NewStudy call piicrawl makes first, with the workload's config, and
// records every sample as setup_s.
func measureSetup(ctx context.Context, e *env, o *outcome, universe int) {
	for i := 0; i < e.sz.setups; i++ {
		o.burst(2)
		var out bytes.Buffer
		seed := e.seed + uint64(i)
		p := runProc(ctx, e.root, &out, e.self, "-setup-child", "-seed", fmt.Sprint(seed), "-universe", strconv.Itoa(universe))
		if p.err != nil {
			o.problem("set-up child: %v", p.err)
			continue
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(out.String()), 64)
		if err != nil {
			o.problem("set-up child output %q: %v", out.String(), err)
			continue
		}
		o.add("setup_s", "s", secs)
	}
}

// setupChild is the body of a -setup-child process.
func setupChild(seed uint64, universe int) error {
	start := now()
	if _, err := piileak.NewStudy(cliConfig(seed, universe, false)); err != nil {
		return err
	}
	fmt.Println(since(start).Seconds())
	return nil
}

// addProc records one cold process's end-to-end numbers.
func addProc(o *outcome, p procResult) {
	o.add("wall_s", "s", p.wall.Seconds())
	o.add("cpu_s", "s", p.cpu.Seconds())
	o.add("peak_rss_mb", "MB", p.rssMB)
}

// addSitesPerSecond derives the per-site throughput of the units from
// their wall times net of the run's median set-up.
func addSitesPerSecond(o *outcome, sites int) {
	setup := o.metrics["setup_s"]
	wall := o.metrics["wall_s"]
	if setup == nil || wall == nil {
		return
	}
	su := summarize(setup.xs).Median
	for _, w := range wall.xs {
		if w > su {
			o.add("sites_per_s", "sites/s", float64(sites)/(w-su))
		}
	}
}

func addFailedFrac(o *outcome) {
	if o.attempted > 0 {
		o.add("failed_frac", "ratio", float64(o.failed)/float64(o.attempted))
	}
}

func runColdCLI(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	measureSetup(ctx, e, o, 0)
	var outs []output
	start := now()
	for i := 0; e.more(i, since(start).Seconds()); i++ {
		o.burst(1)
		seed := e.seed + uint64(i)
		path := filepath.Join(e.work, fmt.Sprintf("cli-%d.json", i))
		p := runProc(ctx, e.root, nil, e.binary("piicrawl"), "-stream", "-seed", fmt.Sprint(seed), "-o", path)
		o.attempted++
		if p.err != nil {
			o.failed++
			o.problem("cold-cli seed %d: %v", seed, p.err)
			continue
		}
		addProc(o, p)
		outs = append(outs, output{fmt.Sprintf("cold-cli seed %d", seed), path, seed})
	}
	o.burst(1)
	addFailedFrac(o)
	return o, e.checkOutputs(ctx, o, outs)
}

// funnelLine matches piicrawl's -funnel summary.
var funnelLine = regexp.MustCompile(`sites: (\d+) .* timeout: (\d+)\s+crashed: (\d+)`)

func runUniverse(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	n := e.sz.universe
	measureSetup(ctx, e, o, n)
	var outs []output
	start := now()
	for i := 0; e.more(i, since(start).Seconds()); i++ {
		o.burst(3)
		seed := e.seed + uint64(i)
		path := filepath.Join(e.work, fmt.Sprintf("universe-%d.json", i))
		p := runProc(ctx, e.root, nil, e.binary("piicrawl"), "-stream", "-universe", strconv.Itoa(n),
			"-workers", "2", "-detect-workers", "2", "-funnel", "-seed", fmt.Sprint(seed), "-o", path)
		if p.err != nil {
			o.attempted += n
			o.failed += n
			o.problem("universe seed %d: %v", seed, p.err)
			continue
		}
		m := funnelLine.FindStringSubmatch(p.tail)
		if m == nil {
			o.problem("universe seed %d: no -funnel line in: %s", seed, p.tail)
			continue
		}
		sites, _ := strconv.Atoi(m[1])
		timeouts, _ := strconv.Atoi(m[2])
		crashed, _ := strconv.Atoi(m[3])
		o.attempted += sites
		o.failed += timeouts + crashed
		if sites != n {
			o.problem("universe seed %d: crawled %d sites, want %d", seed, sites, n)
		}
		addProc(o, p)
		outs = append(outs, output{fmt.Sprintf("universe seed %d", seed), path, seed})
	}
	addSitesPerSecond(o, n)
	o.burst(3)
	addFailedFrac(o)
	return o, e.checkOutputs(ctx, o, outs)
}

func runShardUniverse(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	n := e.sz.shardSites
	measureSetup(ctx, e, o, n)
	var outs []output
	start := now()
	for i := 0; e.more(i, since(start).Seconds()); i++ {
		o.burst(3)
		seed := e.seed + uint64(i)
		path := filepath.Join(e.work, fmt.Sprintf("shard-%d.json", i))
		dir := filepath.Join(e.work, fmt.Sprintf("shards-%d", i))
		p := runProc(ctx, e.root, nil, e.binary("piicrawl"), "-universe", strconv.Itoa(n),
			"-shards", "2", "-supervise", "-reexec", "-workers", "1", "-shard-dir", dir,
			"-seed", fmt.Sprint(seed), "-o", path)
		o.attempted += n
		if p.err != nil {
			o.failed += n
			o.problem("shard-universe seed %d: %v", seed, p.err)
			continue
		}
		rep, err := shard.ReadReport(shard.ReportPath(dir))
		if err != nil {
			o.failed += n
			o.problem("shard-universe seed %d: %v", seed, err)
			continue
		}
		missing := 0
		for _, m := range rep.Missing {
			missing += len(m.Sites)
		}
		o.failed += missing
		if rep.MergedSites+missing != n {
			o.problem("shard-universe seed %d: merged %d + missing %d sites, want %d", seed, rep.MergedSites, missing, n)
		}
		addProc(o, p)
		outs = append(outs, output{fmt.Sprintf("shard-universe seed %d", seed), path, seed})
		// The shard directory holds every site's fsynced checkpoint
		// line; it goes now rather than piling up across units.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	addSitesPerSecond(o, n)
	o.burst(3)
	addFailedFrac(o)
	return o, e.checkOutputs(ctx, o, outs)
}
