// Command piibench is piileak's benchmark. It builds piicrawl and
// piiserve from the repository, runs four workloads against them as
// cold processes with tracing off, checks every output against an
// in-process reference, and prints each metric's median, quartiles and
// sample count. With -trace 1 it instead replays each workload's inputs
// in-process with a timer around every call into a layer and prints the
// per-layer metrics. Run it from the repository root through
// bench/run.sh, which keeps every cache and scratch file under
// .bench_build:
//
//	bash bench/run.sh [-workload a,b] [-seed S] [-seconds T] [-runs R]
//	                  [-trace 0|1] [-spans out.jsonl] [-json out.json]
//	bash bench/run.sh -compare base.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when any correctness check fails.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	root := flag.String("root", ".", "repository root (bench/run.sh sets it)")
	names := flag.String("workload", "", "comma-separated workloads to run (default all, in order)")
	seed := flag.Uint64("seed", 2021, "seed every input derives from")
	seconds := flag.Int("seconds", 20, "how long each timed workload run measures")
	runs := flag.Int("runs", 1, "rounds: each runs the selected workloads once, in the same order")
	trace := flag.Int("trace", 0, "1 replays the workloads in-process and reports per-layer metrics instead")
	spans := flag.String("spans", "", "span file a -trace 1 run writes (default .bench_build/spans.jsonl)")
	jsonOut := flag.String("json", "", "append this invocation's rounds as one set to this document")
	commit := flag.String("commit", "unknown", "commit of the measured code, recorded in -json documents")
	quick := flag.Bool("quick", false, "self-test sizes: 2 CLI processes, 5k-site universes, 8 jobs")
	compare := flag.Bool("compare", false, "compare two -json documents: piibench -compare base.json new.json")
	setupChildFlag := flag.Bool("setup-child", false, "internal: time one NewStudy and print the seconds")
	universe := flag.Int("universe", 0, "internal: the -setup-child study's universe size")
	tamper := flag.Bool("tamper-reference", false, "self-test: corrupt every reference, so every correctness check must fail")
	flag.Parse()

	if *setupChildFlag {
		if err := setupChild(*seed, *universe); err != nil {
			fmt.Fprintln(os.Stderr, "piibench: set-up child:", err)
			return 1
		}
		return 0
	}
	if *compare {
		return runCompare(filepath.Join(*root, "BENCHMARK.json"), flag.Args())
	}

	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piibench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "piibench: -trace takes 0 or 1")
		return 2
	}
	if *runs < 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "piibench: -runs and -seconds must be at least 1")
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "cmd", "piicrawl")); err != nil {
		fmt.Fprintf(os.Stderr, "piibench: %s is not the piileak repository root: %v\n", *root, err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piibench:", err)
		return 1
	}
	build := filepath.Join(absRoot, ".bench_build")
	if *spans == "" {
		*spans = filepath.Join(build, "spans.jsonl")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "piibench:", err)
		return 1
	}
	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	base := env{
		root:    absRoot,
		bin:     filepath.Join(build, "bin"),
		self:    self,
		seed:    *seed,
		seconds: float64(*seconds),
		sz:      sz,
		tamper:  *tamper,
		refs:    map[refKey][]byte{},
	}
	if err := buildBinaries(ctx, absRoot, base.bin); err != nil {
		fmt.Fprintln(os.Stderr, "piibench:", err)
		return 1
	}

	traced := *trace == 1
	var rounds []roundRec
	var spanFile *bufio.Writer
	var closeSpans func() error
	if traced {
		f, err := os.Create(*spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "piibench:", err)
			return 1
		}
		spanFile = bufio.NewWriter(f)
		closeSpans = func() error {
			if err := spanFile.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	for round := 1; round <= *runs; round++ {
		for _, w := range selected {
			e := base
			e.work = filepath.Join(build, "work", w.name)
			rec, err := runOne(ctx, &e, w, round, traced, spanFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "piibench: %s round %d: %v\n", w.name, round, err)
				return 1
			}
			printRound(os.Stdout, rec)
			rounds = append(rounds, rec)
		}
	}
	if closeSpans != nil {
		if err := closeSpans(); err != nil {
			fmt.Fprintln(os.Stderr, "piibench: span file:", err)
			return 1
		}
		fmt.Fprintf(os.Stdout, "# spans written to %s\n", *spans)
	}

	if *jsonOut != "" {
		meta := doc{Schema: docSchema, Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: *commit}
		set := setRec{Seed: *seed, Seconds: *seconds, Runs: *runs, Quick: *quick, Rounds: rounds}
		if err := appendSet(*jsonOut, meta, set); err != nil {
			fmt.Fprintln(os.Stderr, "piibench:", err)
			return 1
		}
	}

	res := summarizeRounds(rounds, traced)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piibench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload once in a fresh scratch directory.
func runOne(ctx context.Context, e *env, w *workload, round int, traced bool, spans *bufio.Writer) (roundRec, error) {
	if err := os.RemoveAll(e.work); err != nil {
		return roundRec{}, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return roundRec{}, err
	}
	var o *outcome
	var err error
	if traced {
		var tr *tracer
		o, tr, err = runTrace(ctx, e, w)
		if err == nil {
			err = tr.write(spans, w.name)
		}
	} else {
		o, err = w.run(ctx, e)
	}
	if err != nil {
		return roundRec{}, err
	}
	o.calibrate()
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "piibench: %s: check failed: %s\n", w.name, p)
	}
	if o.invalid != "" {
		fmt.Fprintf(os.Stderr, "piibench: %s round %d is invalid: %s\n", w.name, round, o.invalid)
	}
	return o.record(w.name, round, e.seed, traced), os.RemoveAll(e.work)
}

func selectWorkloads(names string) ([]*workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []*workload
	for _, n := range strings.Split(names, ",") {
		w := workloadByName(strings.TrimSpace(n))
		if w == nil {
			var known []string
			for _, k := range workloads {
				known = append(known, k.name)
			}
			return nil, fmt.Errorf("unknown workload %q (want one of %s)", n, strings.Join(known, ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarizeRounds reduces the rounds to the result line: the declared
// metrics only, each the median over rounds of the rounds' medians.
// With one workload the names are the declared ones; with several each
// is prefixed by its workload.
func summarizeRounds(rounds []roundRec, traced bool) result {
	res := result{Correct: len(rounds) > 0, Metrics: map[string]metricOut{}}
	byWorkload := map[string][]roundRec{}
	var order []string
	for _, r := range rounds {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, wl := range order {
		for _, d := range declared(traced) {
			var xs []float64
			for _, r := range byWorkload[wl] {
				if st, ok := r.Metrics[d.name]; ok {
					xs = append(xs, st.Value)
				}
			}
			if len(xs) == 0 {
				res.Correct = false
				continue
			}
			name := d.name
			if len(order) > 1 {
				name = wl + "." + d.name
			}
			res.Metrics[name] = metricOut{Value: summarize(xs).Median, Unit: d.unit}
		}
	}
	return res
}

func runCompare(boundsPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "piibench: -compare takes two documents: base.json new.json")
		return 2
	}
	bounds, higher, err := readBounds(boundsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piibench:", err)
		return 2
	}
	base, err := readDoc(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "piibench:", err)
		return 2
	}
	cur, err := readDoc(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "piibench:", err)
		return 2
	}
	if compareDocs(os.Stdout, bounds, higher, base, cur) {
		fmt.Fprintln(os.Stderr, "piibench: regression beyond a BENCHMARK.json bound")
		return 1
	}
	return 0
}
