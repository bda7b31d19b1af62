package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"piileak"
	"piileak/internal/ahocorasick"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/pipeline"
	"piileak/internal/psl"
	"piileak/internal/serve"
	"piileak/internal/shard"
	"piileak/internal/site"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// traceStudy is one study a traced run replays in-process: the config
// the workload's cold process builds, and its pipeline parallelism.
type traceStudy struct {
	cfg                    piileak.Config
	small                  bool
	workers, detectWorkers int
}

func traceColdCLI(e *env) []traceStudy {
	return []traceStudy{{cfg: cliConfig(e.seed, 0, false)}}
}

func traceUniverse(e *env) []traceStudy {
	return []traceStudy{{cfg: cliConfig(e.seed, e.sz.universe, false), workers: 2, detectWorkers: 2}}
}

func traceShardUniverse(e *env) []traceStudy {
	return []traceStudy{{cfg: cliConfig(e.seed, e.sz.shardSites, false), workers: 1, detectWorkers: 1}}
}

// traceServeMix replays one cycle of the open loop's specs.
func traceServeMix(e *env) []traceStudy {
	var out []traceStudy
	for i := 0; i < 4; i++ {
		spec := serveSpec(e.seed, i)
		out = append(out, traceStudy{cfg: spec.StudyConfig(), small: spec.Small})
	}
	return out
}

// span is one timed call across a layer boundary. Times are
// nanoseconds since the traced run began; site is the site index for
// per-site spans and -1 otherwise.
type span struct {
	id, parent int
	name       string
	start, end int64
	site       int
	job        string
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) clock() int64 { return int64(since(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end int64, site int, job string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, end: end, site: site, job: job})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent int) int {
	return t.add(name, parent, t.clock(), -1, -1, "")
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	c := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.end = c
	return time.Duration(sp.end - sp.start)
}

// selfTimes sums each span name's self time: its duration minus the
// part of that interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, sp := range t.spans {
		if sp.parent > 0 {
			children[sp.parent] = append(children[sp.parent], [2]int64{sp.start, sp.end})
		}
	}
	self := map[string]time.Duration{}
	for _, sp := range t.spans {
		self[sp.name] += time.Duration(sp.end - sp.start - covered(children[sp.id], sp.start, sp.end))
	}
	return self
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// spanOut is a span as written to the span file.
type spanOut struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Site     *int   `json:"site,omitempty"`
	Job      string `json:"job,omitempty"`
}

// write appends the run's spans to w as JSON lines: every phase and job
// span, and every 1000th site's spans. Every site still counts in the
// printed aggregates.
func (t *tracer) write(w *bufio.Writer, workload string) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if sp.site >= 0 && sp.site%1000 != 0 {
			continue
		}
		out := spanOut{Workload: workload, ID: sp.id, Parent: sp.parent, Name: sp.name, StartNS: sp.start, EndNS: sp.end, Job: sp.job}
		if sp.site >= 0 {
			s := sp.site
			out.Site = &s
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	return nil
}

// memStats reads the allocator's counters after the caller's work.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

const mb = 1 << 20

// sinks keep measured calls from being optimized away.
var (
	sinkString string
	sinkSite   *site.Site
)

// traceRun is one traced replay of a workload's inputs.
type traceRun struct {
	e       *env
	o       *outcome
	tr      *tracer
	studies []traceStudy
	ecos    []*webgen.Ecosystem
	engs    []*detect.Engine // one per study: the CNAME view is the ecosystem's

	mainLeaks []core.Leak // the first study's leaks, for the accumulate phase
	hosts     []string    // request hosts in capture order, for the PSL phase

	// pipeline samples across studies
	untraced, traced float64 // seconds
	retained         float64 // bytes
	pipelineSites    int
	detectWaitMS     []float64
	detectUS         map[bool][]float64 // by leaky
	scanned, found   int
	// serial replay samples
	crawlUS, recordsPerSite, crawlKB []float64
	detectAllocs                     map[bool][]float64
}

// runTrace replays the workload's inputs in-process, calling each
// layer's public functions with a timer around every call.
func runTrace(ctx context.Context, e *env, w *workload) (*outcome, *tracer, error) {
	r := &traceRun{
		e:            e,
		o:            newOutcome(),
		tr:           &tracer{t0: now()},
		studies:      w.trace(e),
		detectUS:     map[bool][]float64{},
		detectAllocs: map[bool][]float64{},
	}
	phases := []func(context.Context) error{
		r.setup, r.pipeline, r.replay, r.universeAt, r.psl, r.accumulate, r.checkpoint, r.shard, r.serve,
	}
	for _, phase := range phases {
		if err := phase(ctx); err != nil {
			return nil, nil, err
		}
	}
	r.finish()
	return r.o, r.tr, nil
}

// setup times the layers NewStudy runs: ecosystem generation, the
// candidate compile and its automaton, and the engine build.
func (r *traceRun) setup(ctx context.Context) error {
	o, tr := r.o, r.tr
	root := tr.begin("setup", 0)
	for _, st := range r.studies {
		a0 := memStats().TotalAlloc
		id := tr.begin("webgen.generate", root)
		eco, err := webgen.Generate(st.cfg.Ecosystem)
		d := tr.end(id)
		if err != nil {
			return err
		}
		o.add("webgen.generate_ms", "ms", ms(d))
		o.add("webgen.generate_alloc_mb", "MB", float64(memStats().TotalAlloc-a0)/mb)
		r.ecos = append(r.ecos, eco)
	}
	eco := r.ecos[0]
	ccfg := pii.CandidateConfig{MaxDepth: r.studies[0].cfg.CandidateDepth}

	a0 := memStats().TotalAlloc
	id := tr.begin("pii.build_candidates", root)
	cs, err := pii.BuildCandidates(eco.Persona, ccfg)
	d := tr.end(id)
	if err != nil {
		return err
	}
	o.add("pii.build_candidates_ms", "ms", ms(d))
	o.add("pii.build_candidates_alloc_mb", "MB", float64(memStats().TotalAlloc-a0)/mb)
	o.add("pii.tokens", "count", float64(cs.Size()))

	patterns := make([][]byte, 0, cs.Size())
	for _, t := range cs.Tokens() {
		patterns = append(patterns, []byte(t.Value))
	}
	id = tr.begin("ahocorasick.new", root)
	m := ahocorasick.New(patterns)
	d = tr.end(id)
	o.add("ahocorasick.new_ms", "ms", ms(d))
	o.add("ahocorasick.states", "count", float64(m.NumStates()))

	// Engines come from the process-wide build cache, as in every
	// study; in a fresh process the first is its one compile.
	for _, eco := range r.ecos {
		id = tr.begin("detect.new_engine", root)
		eng, err := detect.NewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{Candidates: ccfg})
		tr.end(id)
		if err != nil {
			return err
		}
		r.engs = append(r.engs, eng)
	}
	tr.end(root)
	return nil
}

// leakJSON renders leaks exactly as WriteLeaksJSON does.
func leakJSON(leaks []core.Leak) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	enc.Encode(leaks) //nolint:errcheck // encoding plain structs into a buffer cannot fail
	return buf.Bytes()
}

// overheadMin is how long each side of the tracing-overhead comparison
// runs at least: one pipeline run of a small study lasts tens of
// milliseconds, too short for a single wall time to mean much.
const overheadMin = 500 * time.Millisecond

// pipeline runs each study's fused pipeline over its full site
// population untraced, for the retained heap and the overhead baseline,
// then with a timing source, a timing detector and progress timestamps.
// It alternates the two until the untraced side has run for
// overheadMin and compares each side's median time; only the first
// traced repetition keeps its spans and samples.
func (r *traceRun) pipeline(ctx context.Context) error {
	for i, st := range r.studies {
		eco := r.ecos[i]
		src := eco.Universe()
		opts := pipeline.Options{Options: crawler.Options{Workers: st.workers, Source: src}, DetectWorkers: st.detectWorkers}

		// A short warm-up first, so neither measured run pays the
		// process's first-use costs.
		warm := opts
		warm.Source = prefixSource{src, min(src.Len(), r.e.sz.traceSample)}
		if _, err := pipeline.Run(ctx, eco, st.cfg.Browser, r.engs[i], warm); err != nil {
			return err
		}

		var plain, traced []float64
		var want []byte
		var plainTotal float64
		for rep := 0; rep == 0 || plainTotal < overheadMin.Seconds(); rep++ {
			runtime.GC()
			heap0 := memStats().HeapInuse
			start := now()
			res, err := pipeline.Run(ctx, eco, st.cfg.Browser, r.engs[i], opts)
			d := since(start).Seconds()
			if err != nil {
				return err
			}
			plain = append(plain, d)
			plainTotal += d
			first := rep == 0
			if first {
				runtime.GC()
				if heap1 := memStats().HeapInuse; heap1 > heap0 {
					r.retained += float64(heap1 - heap0)
				}
				r.pipelineSites += src.Len()
				r.o.add("pipeline.capture_high_water", "count", float64(res.Stats.CaptureHighWater))
				want = leakJSON(res.Leaks)
				r.e.checkBytes(ctx, r.o, fmt.Sprintf("traced pipeline seed %d", st.cfg.Ecosystem.Seed), want, st.cfg.Ecosystem.Seed, st.small)
				if i == 0 {
					r.mainLeaks = res.Leaks
				}
			}

			tr := &tracer{t0: r.tr.t0}
			if first {
				tr = r.tr
			}
			pt := newPipeTrace(tr, src, r.engs[i])
			topts := opts
			topts.Source = timingSource{pt}
			topts.Progress = pt.progress
			runtime.GC()
			pt.parent = tr.begin("pipeline.run", 0)
			start = now()
			tres, err := pipeline.Run(ctx, eco, st.cfg.Browser, pt, topts)
			traced = append(traced, since(start).Seconds())
			tr.end(pt.parent)
			if err != nil {
				return err
			}
			if !first {
				continue
			}
			if !bytes.Equal(leakJSON(tres.Leaks), want) {
				r.o.problem("traced pipeline seed %d: leaks differ from the untraced run", st.cfg.Ecosystem.Seed)
			}
			funnel := tres.Dataset.FunnelCounts()
			r.o.attempted += len(tres.Dataset.Crawls)
			r.o.failed += funnel[crawler.OutcomeCrashed] + funnel[crawler.OutcomeTimeout]
			pt.collect(r)
		}
		r.untraced += summarize(plain).Median
		r.traced += summarize(traced).Median
	}
	return nil
}

// pipeTrace is the traced pipeline's view of one run: a site.Source
// and a pipeline.Detector wrapping the real ones, plus the progress
// callback, all writing per-site timestamps.
type pipeTrace struct {
	tr     *tracer
	parent int
	src    site.Source
	pool   sync.Pool

	mu       sync.Mutex
	index    map[string]int
	crawled  []int64 // when the capture entered the detect queue
	detStart []int64
	detEnd   []int64
	records  []int
	leaks    []int
}

func newPipeTrace(tr *tracer, src site.Source, eng *detect.Engine) *pipeTrace {
	n := src.Len()
	pt := &pipeTrace{
		tr:       tr,
		src:      src,
		index:    make(map[string]int, n),
		crawled:  make([]int64, n),
		detStart: make([]int64, n),
		detEnd:   make([]int64, n),
		records:  make([]int, n),
		leaks:    make([]int, n),
	}
	for i := range pt.detStart {
		pt.crawled[i], pt.detStart[i] = -1, -1
	}
	pt.pool.New = func() any { return eng.NewScanner() }
	return pt
}

// timingSource times each Universe.At call the crawl makes.
type timingSource struct{ pt *pipeTrace }

func (s timingSource) Len() int { return s.pt.src.Len() }

func (s timingSource) At(i int) *site.Site {
	pt := s.pt
	start := pt.tr.clock()
	st := pt.src.At(i)
	end := pt.tr.clock()
	pt.mu.Lock()
	pt.index[st.Domain] = i
	pt.mu.Unlock()
	pt.tr.add("webgen.universe_at", pt.parent, start, end, i, "")
	return st
}

// DetectSite times one Scanner.DetectSite call on a pooled scanner, as
// the engine's own pipeline.Detector would make it.
func (pt *pipeTrace) DetectSite(domain string, records []httpmodel.Record) []core.Leak {
	sc := pt.pool.Get().(*detect.Scanner)
	start := pt.tr.clock()
	leaks := sc.DetectSite(domain, records)
	end := pt.tr.clock()
	pt.pool.Put(sc)
	pt.mu.Lock()
	i := pt.index[domain]
	pt.detStart[i], pt.detEnd[i] = start, end
	pt.records[i], pt.leaks[i] = len(records), len(leaks)
	pt.mu.Unlock()
	pt.tr.add("detect.site", pt.parent, start, end, i, "")
	return leaks
}

// progress stamps when each site's capture was handed to detection.
func (pt *pipeTrace) progress(ev pipeline.Event) {
	if ev.Stage != "crawl" {
		return
	}
	c := pt.tr.clock()
	pt.mu.Lock()
	pt.crawled[pt.index[ev.Site]] = c
	pt.mu.Unlock()
}

// collect folds the run's per-site stamps into the samples. A detector
// that started before the progress callback ran waited for nothing.
func (pt *pipeTrace) collect(r *traceRun) {
	for i, ds := range pt.detStart {
		if ds < 0 {
			continue
		}
		if c := pt.crawled[i]; c >= 0 {
			r.detectWaitMS = append(r.detectWaitMS, float64(max(0, ds-c))/1e6)
		}
		leaky := pt.leaks[i] > 0
		r.detectUS[leaky] = append(r.detectUS[leaky], float64(pt.detEnd[i]-ds)/1e3)
		r.scanned += pt.records[i]
		r.found += pt.leaks[i]
	}
}

// stridedSource is every k-th site of a source.
type stridedSource struct {
	src site.Source
	k   int
}

func (s stridedSource) Len() int            { return (s.src.Len() + s.k - 1) / s.k }
func (s stridedSource) At(i int) *site.Site { return s.src.At(i * s.k) }

// replay crawls a strided sample of the first study serially through
// crawler.CrawlStream and detects each capture on one scanner, reading
// the allocator around every call: per-site crawl time, records and
// allocation, and detection allocations. It also collects request
// hosts in capture order for the PSL phase.
func (r *traceRun) replay(ctx context.Context) error {
	st, eco := r.studies[0], r.ecos[0]
	src := eco.Universe()
	k := max(1, src.Len()/r.e.sz.traceSample)
	sample := stridedSource{src, k}
	sc := r.engs[0].NewScanner()
	parent := r.tr.begin("crawler.replay", 0)

	var atEnd int64
	var allocAt uint64
	rs := replaySource{stridedSource: sample, after: func() {
		allocAt = memStats().TotalAlloc
		atEnd = r.tr.clock()
	}}
	err := crawler.CrawlStream(ctx, eco, st.cfg.Browser, crawler.Options{Source: rs}, func(res crawler.SiteResult) error {
		crawlEnd := r.tr.clock()
		alloc := memStats().TotalAlloc - allocAt
		idx := res.Index * k
		r.tr.add("crawler.site", parent, atEnd, crawlEnd, idx, "")
		r.crawlUS = append(r.crawlUS, float64(crawlEnd-atEnd)/1e3)
		r.crawlKB = append(r.crawlKB, float64(alloc)/1024)
		r.recordsPerSite = append(r.recordsPerSite, float64(len(res.Crawl.Records)))
		if res.Crawl.Outcome == crawler.OutcomeSuccess {
			m0 := memStats().Mallocs
			ds := r.tr.clock()
			leaks := sc.DetectSite(res.Crawl.Domain, res.Crawl.Records)
			de := r.tr.clock()
			allocs := memStats().Mallocs - m0
			r.tr.add("detect.site", parent, ds, de, idx, "")
			r.detectAllocs[len(leaks) > 0] = append(r.detectAllocs[len(leaks) > 0], float64(allocs))
		}
		for i := range res.Crawl.Records {
			r.hosts = append(r.hosts, res.Crawl.Records[i].Request.Host())
		}
		return nil
	})
	r.tr.end(parent)
	return err
}

// replaySource stamps the allocator and the clock after each At, so
// the crawl's own cost is what the emit callback sees.
type replaySource struct {
	stridedSource
	after func()
}

func (s replaySource) At(i int) *site.Site {
	st := s.stridedSource.At(i)
	s.after()
	return st
}

// universeAt times Universe.At over the first study's population,
// strided to at least 20k calls (the core alone is walked repeatedly).
func (r *traceRun) universeAt(ctx context.Context) error {
	src := r.ecos[0].Universe()
	want := 20 * r.e.sz.traceSample
	step := max(1, src.Len()/want)
	id := r.tr.begin("webgen.universe_at_loop", 0)
	m0 := memStats().Mallocs
	start := now()
	calls := 0
	for calls < want {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < src.Len(); i += step {
			sinkSite = src.At(i)
			calls++
		}
	}
	d := since(start)
	allocs := memStats().Mallocs - m0
	r.tr.end(id)
	r.o.add("webgen.universe_at_ns", "ns", float64(d.Nanoseconds())/float64(calls))
	r.o.add("webgen.universe_at_allocs", "count", float64(allocs)/float64(calls))
	return nil
}

// psl times psl.ETLDPlusOne over the replay's request hosts in capture
// order, repeated to at least 200k calls.
func (r *traceRun) psl(ctx context.Context) error {
	if len(r.hosts) == 0 {
		return fmt.Errorf("trace: the replay captured no requests")
	}
	id := r.tr.begin("psl.etld1", 0)
	start := now()
	calls := 0
	for calls < 100*r.e.sz.traceSample {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, h := range r.hosts {
			sinkString, _ = psl.ETLDPlusOne(h)
		}
		calls += len(r.hosts)
	}
	d := since(start)
	r.tr.end(id)
	r.o.add("psl.etld1_ns", "ns", float64(d.Nanoseconds())/float64(calls))
	return nil
}

// accumulate replays the first study's leaks through the §4.2
// accumulator and the §5 tracking index, as the pipeline's accumulate
// stage does.
func (r *traceRun) accumulate(ctx context.Context) error {
	leaks := r.mainLeaks
	if len(leaks) == 0 {
		return fmt.Errorf("trace: the first study found no leaks")
	}
	id := r.tr.begin("core.accumulate", 0)
	start := now()
	n := 0
	for n < 50*r.e.sz.traceSample {
		if err := ctx.Err(); err != nil {
			return err
		}
		acc := core.NewAccumulator()
		ix := tracking.NewIndex()
		for i := range leaks {
			acc.Add(&leaks[i])
			ix.Add(&leaks[i])
		}
		n += len(leaks)
	}
	d := since(start)
	r.tr.end(id)
	r.o.add("core.accumulate_ns_per_leak", "ns", float64(d.Nanoseconds())/float64(n))
	return nil
}

// prefixSource is the first n sites of a source.
type prefixSource struct {
	src site.Source
	n   int
}

func (s prefixSource) Len() int            { return s.n }
func (s prefixSource) At(i int) *site.Site { return s.src.At(i) }

// checkpoint times the serial pipeline over the first sites of the
// first study with and without a checkpoint file, twice each, and
// charges the difference of the faster runs to the checkpoint.
func (r *traceRun) checkpoint(ctx context.Context) error {
	st, eco := r.studies[0], r.ecos[0]
	src := prefixSource{eco.Universe(), min(eco.Universe().Len(), r.e.sz.traceCkpt)}
	path := filepath.Join(r.e.work, "trace.ckpt")
	parent := r.tr.begin("crawler.checkpoint", 0)
	best := map[bool]time.Duration{}
	for rep := 0; rep < 2; rep++ {
		for _, ckpt := range []bool{false, true} {
			opts := pipeline.Options{Options: crawler.Options{Source: src}}
			name := "pipeline.run.plain"
			if ckpt {
				opts.CheckpointPath = path
				name = "pipeline.run.checkpointed"
			}
			id := r.tr.begin(name, parent)
			_, err := pipeline.Run(ctx, eco, st.cfg.Browser, r.engs[0], opts)
			d := r.tr.end(id)
			if err != nil {
				return err
			}
			if b, ok := best[ckpt]; !ok || d < b {
				best[ckpt] = d
			}
			if err := os.RemoveAll(path); err != nil {
				return err
			}
		}
	}
	r.tr.end(parent)
	r.o.add("crawler.checkpoint_us_per_site", "us", float64((best[true]-best[false]).Nanoseconds())/1e3/float64(src.n))
	return nil
}

// shard runs a K=2 sharded study in-process through the shard
// runtime's public steps — each worker, then the verified merge — over
// the first study's universe, capped in size.
func (r *traceRun) shard(ctx context.Context) error {
	st, eco := r.studies[0], r.ecos[0]
	if n := min(st.cfg.Ecosystem.UniverseSize, r.e.sz.traceShard); n != st.cfg.Ecosystem.UniverseSize {
		cfg := st.cfg.Ecosystem
		cfg.UniverseSize = n
		var err error
		if eco, err = webgen.Generate(cfg); err != nil {
			return err
		}
	}
	plan, err := shard.NewPlan(eco, 2)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.e.work, "trace-shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	parent := r.tr.begin("shard.run", 0)
	var bytesOut int64
	for s := 0; s < 2; s++ {
		id := r.tr.begin("shard.worker", parent)
		path, err := shard.RunWorker(ctx, eco, st.cfg.Browser, r.engs[0], shard.WorkerConfig{Shard: s, Shards: 2, Dir: dir, Workers: 1, DetectWorkers: 1})
		d := r.tr.end(id)
		if err != nil {
			return err
		}
		r.o.add("shard.worker_s", "s", d.Seconds())
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		bytesOut += fi.Size()
	}
	a0 := memStats().TotalAlloc
	id := r.tr.begin("shard.merge", parent)
	res, rep, err := shard.MergeDir(eco, st.cfg.Browser, plan, dir)
	d := r.tr.end(id)
	r.tr.end(parent)
	if err != nil {
		return err
	}
	r.o.add("shard.merge_s", "s", d.Seconds())
	r.o.add("shard.merge_alloc_mb", "MB", float64(memStats().TotalAlloc-a0)/mb)
	r.o.add("shard.result_bytes_per_site", "bytes", float64(bytesOut)/float64(eco.Universe().Len()))
	if rep.Partial {
		r.o.problem("traced shard run: partial merge")
	}
	r.e.checkBytes(ctx, r.o, "traced shard merge", leakJSON(res.Leaks), st.cfg.Ecosystem.Seed, st.small)
	return os.RemoveAll(dir)
}

// serve submits each study's spec (universe capped) to an in-process
// piiserve server twice and compares each job's submit-to-done time
// with NewStudy plus Run of the same spec; it also times the job
// store's durable transitions.
func (r *traceRun) serve(ctx context.Context) error {
	dir := filepath.Join(r.e.work, "trace-serve")
	srv, err := serve.New(serve.Config{Dir: dir, Slots: 2})
	if err != nil {
		return err
	}
	sctx, stop := context.WithCancel(ctx)
	defer stop()
	srv.Start(sctx)
	h0, m0 := detect.CacheStats()
	parent := r.tr.begin("serve.jobs", 0)
	var runErr error
	for _, st := range r.studies {
		spec := serve.Spec{
			Seed:          st.cfg.Ecosystem.Seed,
			Small:         st.small,
			UniverseSize:  min(st.cfg.Ecosystem.UniverseSize, r.e.sz.traceShard),
			Workers:       st.workers,
			DetectWorkers: st.detectWorkers,
		}
		for rep := 0; rep < 2 && runErr == nil; rep++ {
			runErr = r.serveJob(ctx, srv, parent, spec)
		}
	}
	r.tr.end(parent)
	h1, m1 := detect.CacheStats()
	if lookups := (h1 - h0) + (m1 - m0); lookups > 0 {
		r.o.add("detect.cache_hit_frac", "ratio", float64(h1-h0)/float64(lookups))
	}
	srv.Drain()
	srv.Wait()
	if err := srv.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}

	store, err := serve.OpenStore(filepath.Join(r.e.work, "trace-wal"))
	if err != nil {
		return err
	}
	id := r.tr.begin("serve.wal", 0)
	for i := 0; i < 5*r.e.sz.traceSample/100; i++ {
		t := now()
		j, err := store.Submit(serve.Spec{Seed: r.e.seed + uint64(i), Small: true})
		if err != nil {
			return err
		}
		r.o.add("serve.wal_transition_us", "us", float64(since(t).Nanoseconds())/1e3)
		t = now()
		if _, err := store.MarkRunning(j.ID); err != nil {
			return err
		}
		r.o.add("serve.wal_transition_us", "us", float64(since(t).Nanoseconds())/1e3)
		t = now()
		if _, err := store.MarkDone(j.ID); err != nil {
			return err
		}
		r.o.add("serve.wal_transition_us", "us", float64(since(t).Nanoseconds())/1e3)
	}
	r.tr.end(id)
	if err := store.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(r.e.work, "trace-wal")); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// serveJob runs one spec through the server and then directly.
func (r *traceRun) serveJob(ctx context.Context, srv *serve.Server, parent int, spec serve.Spec) error {
	start := r.tr.clock()
	t := now()
	job, err := srv.Submit(spec)
	if err != nil {
		return err
	}
	for {
		j, ok := srv.Store().Get(job.ID)
		if !ok {
			return fmt.Errorf("trace: job %s vanished", job.ID)
		}
		if j.State.Terminal() {
			if j.State != serve.StateDone {
				r.o.problem("traced serve job %s ended %s: %s", j.ID, j.State, j.Error)
			}
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	served := since(t)
	r.tr.add("serve.job", parent, start, r.tr.clock(), -1, job.ID)

	t = now()
	study, err := piileak.NewStudy(spec.StudyConfig())
	if err != nil {
		return err
	}
	opts := []piileak.RunOption{piileak.WithStream()}
	if spec.Workers > 0 {
		opts = append(opts, piileak.WithWorkers(spec.Workers, spec.DetectWorkers))
	}
	if err := study.Run(ctx, opts...); err != nil {
		return err
	}
	r.o.add("serve.overhead_ms_per_job", "ms", ms(served-since(t)))
	return nil
}

// finish turns the collected samples into the per-layer metrics and
// the layers' self times.
func (r *traceRun) finish() {
	o := r.o
	o.add("crawler.site_us", "us", mean(r.crawlUS))
	o.add("crawler.records_per_site", "count", mean(r.recordsPerSite))
	o.add("crawler.alloc_kb_per_site", "KB", mean(r.crawlKB))
	o.add("detect.site_us.leaky", "us", mean(r.detectUS[true]))
	o.add("detect.site_us.clean", "us", mean(r.detectUS[false]))
	o.add("detect.allocs_per_site.leaky", "count", mean(r.detectAllocs[true]))
	o.add("detect.allocs_per_site.clean", "count", mean(r.detectAllocs[false]))
	if r.found > 0 {
		o.add("detect.records_per_leak", "count", float64(r.scanned)/float64(r.found))
	}
	o.add("pipeline.detect_wait_ms_p50", "ms", percentile(r.detectWaitMS, 50))
	o.add("pipeline.detect_wait_ms_p90", "ms", percentile(r.detectWaitMS, 90))
	o.add("pipeline.retained_mb_per_100k_sites", "MB", r.retained/mb/float64(r.pipelineSites)*1e5)
	o.add("trace_overhead_pct", "%", (r.traced-r.untraced)/r.untraced*100)
	for name, d := range r.tr.selfTimes() {
		o.add("self_ms."+name, "ms", ms(d))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
