package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric the benchmark reports. BENCHMARK.json
// at the repository root lists the same names and units; the self-test
// pins that the two agree. For a per-layer metric, moves names the
// end-to-end metric and workload it should move and flat where it
// should stay unchanged — the prediction an optimisation of that layer
// is judged against.
type metricDef struct {
	name, unit  string
	moves, flat string
}

// endToEnd are the metrics every untraced workload run reports: what a
// user of piicrawl or piiserve pays.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "wall_s", unit: "s"},
	{name: "cpu_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the metrics every traced run reports, one group per
// layer of the program.
var perLayer = []metricDef{
	{"pii.build_candidates_ms", "ms", "setup_s, wall_s on cold-cli; setup_s on all", "universe wall_s"},
	{"pii.build_candidates_alloc_mb", "MB", "setup_s, wall_s on cold-cli", "universe wall_s"},
	{"pii.tokens", "count", "setup_s on all (work done by the compile)", "every workload's wall_s per site"},
	{"ahocorasick.new_ms", "ms", "setup_s on all", "universe wall_s"},
	{"ahocorasick.states", "count", "setup_s on all; peak_rss_mb on cold-cli", "universe wall_s"},
	{"webgen.generate_ms", "ms", "setup_s on cold-cli; wall_s on serve-mix (every job regenerates)", "universe wall_s"},
	{"webgen.generate_alloc_mb", "MB", "setup_s on cold-cli; wall_s on serve-mix", "universe wall_s"},
	{"webgen.universe_at_ns", "ns", "wall_s on universe, shard-universe", "cold-cli"},
	{"webgen.universe_at_allocs", "count", "wall_s, cpu_s on universe, shard-universe", "cold-cli"},
	{"crawler.site_us", "us", "wall_s on universe; wall_s on serve-mix", "cold-cli setup_s"},
	{"crawler.records_per_site", "count", "wall_s on universe (work per site)", "cold-cli setup_s"},
	{"crawler.alloc_kb_per_site", "KB", "cpu_s on universe (GC)", "cold-cli setup_s"},
	{"psl.etld1_ns", "ns", "wall_s on universe", "cold-cli"},
	{"detect.site_us.leaky", "us", "wall_s on serve-mix", "universe wall_s"},
	{"detect.site_us.clean", "us", "wall_s on universe", "cold-cli"},
	{"detect.allocs_per_site.leaky", "count", "cpu_s on serve-mix", "universe"},
	{"detect.allocs_per_site.clean", "count", "cpu_s on universe", "cold-cli"},
	{"detect.records_per_leak", "count", "wall_s on universe (records scanned per leak found)", "setup_s"},
	{"detect.cache_hit_frac", "ratio", "wall_s on serve-mix", "every CLI workload"},
	{"core.accumulate_ns_per_leak", "ns", "none: under 1% of wall_s everywhere", "all"},
	{"pipeline.detect_wait_ms_p50", "ms", "wall_s on universe", "cold-cli"},
	{"pipeline.detect_wait_ms_p90", "ms", "wall_s on universe", "cold-cli"},
	{"pipeline.capture_high_water", "count", "peak_rss_mb on universe", "cold-cli"},
	{"pipeline.retained_mb_per_100k_sites", "MB", "peak_rss_mb on universe", "cold-cli"},
	{"crawler.checkpoint_us_per_site", "us", "wall_s, cpu_s on shard-universe; wall_s on serve-mix", "universe, cold-cli"},
	{"shard.worker_s", "s", "wall_s, cpu_s on shard-universe", "universe, cold-cli"},
	{"shard.merge_s", "s", "wall_s on shard-universe", "universe, cold-cli"},
	{"shard.merge_alloc_mb", "MB", "peak_rss_mb on shard-universe", "universe, cold-cli"},
	{"shard.result_bytes_per_site", "bytes", "wall_s on shard-universe (writes)", "universe, cold-cli"},
	{"serve.wal_transition_us", "us", "wall_s on serve-mix", "every CLI workload"},
	{"serve.overhead_ms_per_job", "ms", "wall_s on serve-mix", "every CLI workload"},
	{"trace_overhead_pct", "%", "none: the tracing's own cost", "all"},
}

// series is one metric's samples within a run.
type series struct {
	unit string
	xs   []float64
}

// outcome is one workload run: its samples, what it attempted, and
// every correctness failure it found. Besides the declared metrics a
// run may record informational ones (sites_per_s, job_p90_s,
// late_ms_max, failed_frac, self_ms.*); they stay out of BENCHMARK.json
// because each exists on only some workloads, and every declared
// metric must exist on every workload.
type outcome struct {
	metrics   map[string]*series
	attempted int
	failed    int
	problems  []string
	invalid   string // non-empty when the run's load was not what it claims
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]*series{}}
}

func (o *outcome) add(name, unit string, x float64) {
	s := o.metrics[name]
	if s == nil {
		s = &series{unit: unit}
		o.metrics[name] = s
	}
	s.xs = append(s.xs, x)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// stat is one metric of one run as recorded: the median of the run's
// samples (the value the result line reports), the quartiles, the
// count and the samples themselves.
type stat struct {
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

// roundRec is one workload run in a -json document.
type roundRec struct {
	Workload  string          `json:"workload"`
	Round     int             `json:"round"`
	Seed      uint64          `json:"seed"`
	Trace     bool            `json:"trace,omitempty"`
	Valid     bool            `json:"valid"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
}

// record summarizes an outcome into the round's record.
func (o *outcome) record(workload string, round int, seed uint64, trace bool) roundRec {
	r := roundRec{
		Workload:  workload,
		Round:     round,
		Seed:      seed,
		Trace:     trace,
		Valid:     o.invalid == "",
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]stat{},
	}
	for name, s := range o.metrics {
		sum := summarize(s.xs)
		r.Metrics[name] = stat{Value: sum.Median, Q1: sum.Q1, Q3: sum.Q3, N: sum.N, Unit: s.unit, Samples: s.xs}
	}
	return r
}

// declared returns the metric list a run of this kind reports.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printRound writes one line per metric — name, median, q1, q3, n and
// unit — declared metrics first, then the informational extras.
func printRound(w io.Writer, r roundRec) {
	fmt.Fprintf(w, "# %s round %d seed %d", r.Workload, r.Round, r.Seed)
	if r.Trace {
		fmt.Fprint(w, " (traced)")
	}
	fmt.Fprintf(w, ": attempted %d failed %d correct %v valid %v\n", r.Attempted, r.Failed, r.Correct, r.Valid)
	fmt.Fprintf(w, "%-9s %-16s %-36s %14s %14s %14s %5s %s\n", "kind", "workload", "metric", "median", "q1", "q3", "n", "unit")
	seen := map[string]bool{}
	for _, d := range declared(r.Trace) {
		seen[d.name] = true
		st, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-9s %-16s %-36s %14.6g %14.6g %14.6g %5d %s\n", "metric", r.Workload, d.name, st.Value, st.Q1, st.Q3, st.N, st.Unit)
		if d.moves != "" {
			fmt.Fprintf(w, "%-9s %-16s %-36s moves %s; flat on %s\n", "predicts", r.Workload, d.name, d.moves, d.flat)
		}
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		st := r.Metrics[name]
		fmt.Fprintf(w, "%-9s %-16s %-36s %14.6g %14.6g %14.6g %5d %s\n", "info", r.Workload, name, st.Value, st.Q1, st.Q3, st.N, st.Unit)
	}
}
