package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/faultsim"
	"piileak/internal/obs"
	"piileak/internal/pipeline"
	"piileak/internal/webgen"
)

// The package fixture: one faulty small ecosystem, its detector, and
// the unsharded streamed reference run every merge test compares
// against. Built once — the reference crawl is the expensive part.
const fixtureSeed = 53

var (
	fixtureOnce sync.Once
	fixtureEco  *webgen.Ecosystem
	fixtureDet  *detect.Engine
	fixtureRef  *pipeline.Result
)

func fixture(t testing.TB) (*webgen.Ecosystem, browser.Profile, *detect.Engine, *pipeline.Result) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := webgen.SmallConfig(fixtureSeed)
		cfg.Faults = &faultsim.Config{Rate: 0.3}
		fixtureEco = webgen.MustGenerate(cfg)
		fixtureDet = detect.MustNewEngine(fixtureEco.Persona, dnssim.NewClassifier(fixtureEco.Zone), detect.Config{})
		ref, err := pipeline.Run(context.Background(), fixtureEco, browser.Firefox88(), fixtureDet, pipeline.Options{})
		if err != nil {
			panic(err)
		}
		fixtureRef = ref
	})
	return fixtureEco, browser.Firefox88(), fixtureDet, fixtureRef
}

func leaksJSON(t testing.TB, leaks []core.Leak) []byte {
	t.Helper()
	data, err := json.MarshalIndent(leaks, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func datasetJSON(t testing.TB, res *pipeline.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Dataset.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runShards crawls every shard of a K-way split into dir and returns
// the plan.
func runShards(t testing.TB, dir string, shards int) *Plan {
	t.Helper()
	eco, profile, det, _ := fixture(t)
	for s := 0; s < shards; s++ {
		if _, err := RunWorker(context.Background(), eco, profile, det, WorkerConfig{
			Shard: s, Shards: shards, Dir: dir,
		}); err != nil {
			t.Fatalf("shard %d/%d: %v", s, shards, err)
		}
	}
	plan, err := NewPlan(eco, shards)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// assertMatchesReference pins the headline invariant: a merged result's
// leak bytes, analysis, tracking census and (thin) dataset equal the
// unsharded streamed run's.
func assertMatchesReference(t *testing.T, res *pipeline.Result) {
	t.Helper()
	_, _, _, ref := fixture(t)
	if got, want := leaksJSON(t, res.Leaks), leaksJSON(t, ref.Leaks); !bytes.Equal(got, want) {
		t.Errorf("merged leak JSON diverges from unsharded run (%d vs %d bytes)", len(got), len(want))
	}
	if got, want := res.Analysis.Headline(), ref.Analysis.Headline(); got != want {
		t.Errorf("merged headline diverges:\n%+v\n%+v", got, want)
	}
	if !reflect.DeepEqual(res.Analysis.ByMethod(), ref.Analysis.ByMethod()) {
		t.Error("merged Table 1a diverges")
	}
	if !reflect.DeepEqual(res.Analysis.ByEncoding(), ref.Analysis.ByEncoding()) {
		t.Error("merged Table 1b diverges")
	}
	if !reflect.DeepEqual(res.Tracking.Classification(), ref.Tracking.Classification()) {
		t.Error("merged Table 2 classification diverges")
	}
	if !reflect.DeepEqual(res.Senders, ref.Senders) {
		t.Error("merged sender set diverges")
	}
	if got, want := datasetJSON(t, res), datasetJSON(t, ref); !bytes.Equal(got, want) {
		t.Errorf("merged dataset diverges (%d vs %d bytes)", len(got), len(want))
	}
	if res.TotalRecords != ref.TotalRecords {
		t.Errorf("merged TotalRecords = %d, unsharded %d", res.TotalRecords, ref.TotalRecords)
	}
}

// TestPlanDeterministicInterleaved: the planner's contract — equal
// plans from equal inputs, rank-interleaved assignment, sizes within
// one, and full coverage.
func TestPlanDeterministicInterleaved(t *testing.T) {
	eco, _, _, _ := fixture(t)
	for _, k := range []int{1, 2, 3, 4, 8} {
		a, err := NewPlan(eco, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewPlan(eco, k)
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Errorf("K=%d: two plans over the same ecosystem differ: %+v, %+v", k, a, b)
		}
		if a.Universe != len(eco.Sites) {
			t.Errorf("K=%d: plan universe %d, ecosystem has %d sites", k, a.Universe, len(eco.Sites))
		}
		min, max := len(eco.Sites), 0
		total := 0
		for s := 0; s < k; s++ {
			ix := a.Indexes(s)
			if n := len(ix); n != a.Size(s) {
				t.Fatalf("K=%d shard %d: %d indexes, Size says %d", k, s, n, a.Size(s))
			}
			if n := len(ix); n < min {
				min = n
			} else if n > max {
				max = n
			}
			for j, i := range ix {
				if i != s+j*k {
					t.Fatalf("K=%d shard %d: index %d at position %d, want %d", k, s, i, j, s+j*k)
				}
			}
			total += len(ix)
		}
		if total != a.Universe {
			t.Errorf("K=%d: shards cover %d of %d sites", k, total, a.Universe)
		}
		if max == 0 {
			max = min
		}
		if max-min > 1 {
			t.Errorf("K=%d: shard sizes span [%d, %d], want within 1", k, min, max)
		}
	}
	if _, err := NewPlan(eco, 0); err == nil {
		t.Error("NewPlan accepted 0 shards")
	}
}

// TestMergeRefusesPlanOfOtherUniverse: a plan that partitions another
// universe than the ecosystem's is refused, not merged as a run whose
// shards are all missing.
func TestMergeRefusesPlanOfOtherUniverse(t *testing.T) {
	eco, profile, _, _ := fixture(t)
	plan, err := NewPlan(eco, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan.Universe--
	if res, report, err := MergeDir(eco, profile, plan, t.TempDir()); err == nil || res != nil || report != nil {
		t.Errorf("MergeDir over a plan of %d sites returned (%v, %+v, %v), want (nil, nil, error)", plan.Universe, res, report, err)
	}
}

// seal ends a header line and site lines with the trailer a completed
// shard run writes — their count and SHA-256 — so a tampered line
// carries a valid trailer and only the per-line checks can catch it.
func seal(header []byte, lines [][]byte) []byte {
	sum := sha256.New()
	for _, l := range lines {
		sum.Write(l)
	}
	out := bytes.Join(append([][]byte{header}, lines...), nil)
	return fmt.Appendf(out, "{\"lines\":%d,\"sha256\":\"%x\"}\n", len(lines), sum.Sum(nil))
}

// resultLines splits a shard result file into its header, site lines
// and trailer, each with its newline.
func resultLines(t *testing.T, path string) (raw, header []byte, sites [][]byte, trailer []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter's empty tail
	return raw, lines[0], lines[1 : len(lines)-1], lines[len(lines)-1]
}

// editHeader rewrites a header line through edit.
func editHeader(t *testing.T, line []byte, edit func(*crawler.Header)) []byte {
	t.Helper()
	var h crawler.Header
	if err := json.Unmarshal(line, &h); err != nil {
		t.Fatal(err)
	}
	edit(&h)
	out, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// refusesOnDisk writes each tampered file over path in turn and requires
// MergeDir to refuse it — a corrupt file that exists is an error, never
// a missing shard — then restores the original.
func refusesOnDisk(t *testing.T, plan *Plan, dir, path string, cases map[string][]byte) {
	t.Helper()
	eco, profile, _, _ := fixture(t)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range cases {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, report, err := MergeDir(eco, profile, plan, dir); err == nil || res != nil || report != nil {
			t.Errorf("%s: MergeDir returned (%v, %+v, %v), want (nil, nil, error)", name, res, report, err)
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResultRejectsTampering: the merge trusts a sealed result only
// after the trailer and the per-line checks hold; every class of
// corruption, written to disk, must be refused.
func TestResultRejectsTampering(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	plan := runShards(t, dir, 2)
	path := ResultPath(dir, 0, 2)
	h, err := crawler.ReadSealed(path, plan.header(eco, profile, 0, ""), plan.source(eco, 0), nil)
	if err != nil {
		t.Fatalf("fresh worker result fails verification: %v", err)
	}
	if h.Shard != 0 || h.Shards != 2 || h.Universe != len(eco.Sites) || h.Detect != pipeline.DetectPin(det) {
		t.Fatalf("header %+v looks wrong", h)
	}

	raw, header, sites, trailer := resultLines(t, path)
	body := func(edit func(sites [][]byte)) [][]byte {
		out := append([][]byte(nil), sites...)
		edit(out)
		return out
	}
	index := func(line []byte, i int) []byte {
		_, rest, _ := bytes.Cut(line, []byte(","))
		return append([]byte(fmt.Sprintf(`{"index":%d,`, i)), rest...)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(header)+len(sites[0])/2] ^= 0x20 // inside the first site line
	var t2 struct {
		Lines  int    `json:"lines"`
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(trailer, &t2); err != nil {
		t.Fatal(err)
	}
	recounted := bytes.Replace(raw, []byte(fmt.Sprintf(`{"lines":%d,`, t2.Lines)), []byte(fmt.Sprintf(`{"lines":%d,`, t2.Lines+1)), 1)

	refusesOnDisk(t, plan, dir, path, map[string][]byte{
		"flipped body byte":  flipped,
		"truncated trailer":  raw[:len(raw)-10],
		"missing trailer":    raw[:len(raw)-len(trailer)],
		"edited line count":  recounted,
		"repeated index":     seal(header, body(func(s [][]byte) { s[1] = index(s[1], 0) })),
		"out-of-range index": seal(header, body(func(s [][]byte) { s[0] = index(s[0], plan.Size(0)) })),
	})

	// Another shard's header over shard 0's lines still seals: its
	// trailer covers the site lines. The merge refuses it, since the
	// lines name shard 0's sites.
	stolen := editHeader(t, header, func(h *crawler.Header) { h.Shard = 1 })
	refusesOnDisk(t, plan, dir, ResultPath(dir, 1, 2), map[string][]byte{
		"shard 0's lines under shard 1's header": seal(stolen, sites),
	})
}

// TestWorkerResultSurvivesRerunAndUnrenamedSeal: a finished worker run
// again returns its verified result and crawls nothing, and a worker
// killed after sealing its checkpoint but before renaming it resumes to
// the same result bytes. Either way the shard leaves one file behind.
func TestWorkerResultSurvivesRerunAndUnrenamedSeal(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	cfg := WorkerConfig{Shard: 1, Shards: 2, Dir: dir}
	path, err := RunWorker(context.Background(), eco, profile, det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	o := obs.NewRun()
	cfg.Options.Obs = o
	if _, err := RunWorker(context.Background(), eco, profile, det, cfg); err != nil {
		t.Fatal(err)
	}
	if n := o.Snapshot().Counters[obs.MetricCrawlSites]; n != 0 {
		t.Errorf("re-running a finished worker crawled %d sites, want 0", n)
	}

	if err := os.Rename(path, CheckpointPath(dir, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorker(context.Background(), eco, profile, det, cfg); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("resealed result (%d bytes, err %v) differs from the first (%d bytes)", len(got), err, len(want))
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
		t.Errorf("shard directory holds %v, want the result alone", files)
	}
}

// TestMergeMatchesUnsharded is the tentpole invariant at the package
// level: for several K, workers run independently and the verified
// merge reproduces the unsharded streamed run byte for byte.
func TestMergeMatchesUnsharded(t *testing.T) {
	eco, profile, _, _ := fixture(t)
	for _, k := range []int{1, 2, 3} {
		dir := t.TempDir()
		plan := runShards(t, dir, k)
		res, report, err := MergeDir(eco, profile, plan, dir)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if report.Partial || len(report.Missing) != 0 {
			t.Fatalf("K=%d: full merge reported partial: %+v", k, report)
		}
		if len(report.Completed) != k {
			t.Fatalf("K=%d: completed shards %v", k, report.Completed)
		}
		if report.MergedSites != len(eco.Sites) {
			t.Errorf("K=%d: merged %d sites of %d", k, report.MergedSites, len(eco.Sites))
		}
		if report.Leaks != len(res.Leaks) {
			t.Errorf("K=%d: report counts %d leaks, result holds %d", k, report.Leaks, len(res.Leaks))
		}
		assertMatchesReference(t, res)
	}
}

// TestMergeMissingShardDegrades: a shard with no result file degrades
// the merge into a partial dataset plus a machine-readable account of
// exactly which sites are gone — never an error, never silence.
func TestMergeMissingShardDegrades(t *testing.T) {
	eco, profile, _, _ := fixture(t)
	dir := t.TempDir()
	plan := runShards(t, dir, 3)
	lost := 1
	if err := os.Remove(ResultPath(dir, lost, 3)); err != nil {
		t.Fatal(err)
	}
	res, report, err := MergeDir(eco, profile, plan, dir)
	if err != nil {
		t.Fatalf("merge with a missing shard errored: %v", err)
	}
	if !report.Partial {
		t.Error("report not marked partial")
	}
	if len(report.Missing) != 1 || report.Missing[0].Shard != lost {
		t.Fatalf("Missing = %+v, want shard %d", report.Missing, lost)
	}
	if !reflect.DeepEqual(report.Missing[0].Sites, plan.Domains(eco, lost)) {
		t.Error("missing-shard site list does not match the plan's derived domains")
	}
	wantSites := len(eco.Sites) - plan.Size(lost)
	if report.MergedSites != wantSites {
		t.Errorf("merged %d sites, want %d", report.MergedSites, wantSites)
	}
	gone := map[string]bool{}
	for _, d := range plan.Domains(eco, lost) {
		gone[d] = true
	}
	for _, l := range res.Leaks {
		if gone[l.Site] {
			t.Fatalf("leak from lost shard's site %s survived the merge", l.Site)
		}
	}
	for i := range res.Dataset.Crawls {
		if gone[res.Dataset.Crawls[i].Domain] {
			t.Fatalf("crawl of lost shard's site %s survived the merge", res.Dataset.Crawls[i].Domain)
		}
	}
}

// TestMergeRejectsMismatchedResults: corrupt-but-present inputs are
// errors, never silently folded or dropped — foreign seeds, wrong
// splits, two candidate sets, records whose domains contradict the
// ecosystem, and a torn file.
func TestMergeRejectsMismatchedResults(t *testing.T) {
	dir := t.TempDir()
	plan := runShards(t, dir, 2)
	raw, header, sites, _ := resultLines(t, ResultPath(dir, 0, 2))
	liar := append([][]byte(nil), sites...)
	liar[0] = bytes.Replace(liar[0], []byte(`"domain":"`), []byte(`"domain":"impostor.`), 1)
	refusesOnDisk(t, plan, dir, ResultPath(dir, 0, 2), map[string][]byte{
		"foreign eco seed":      seal(editHeader(t, header, func(h *crawler.Header) { h.Seed++ }), sites),
		"different split":       seal(editHeader(t, header, func(h *crawler.Header) { h.Shards = 4 }), sites),
		"contradicting domain":  seal(header, liar),
		"torn result file":      raw[:len(raw)-7],
		"missing lines, sealed": seal(header, sites[1:]),
	})

	// Shard 1 sealed under another candidate set than shard 0, whose pin
	// the merge read first.
	_, header, sites, _ = resultLines(t, ResultPath(dir, 1, 2))
	refusesOnDisk(t, plan, dir, ResultPath(dir, 1, 2), map[string][]byte{
		"another candidate set": seal(editHeader(t, header, func(h *crawler.Header) { h.Detect = "other" }), sites),
	})
}

// TestSealedResultBytesPinned pins the result file RunWorker writes for
// a serial `-small -seed 7 -faults 0.2` shard 0/2: its bytes come from
// the checkpoint's lines and the trailer the completed run keeps as it
// appends. A worker cancelled after its 10th append and run again seals
// the same bytes, its trailer now covering a resumed prefix and the new
// appends.
func TestSealedResultBytesPinned(t *testing.T) {
	const want = "d87dfb64fd1106c580c19e6fe33ed20ccb054d14584716ff7330d3e8bdd9567e"
	eco, det := studyOf7(t, 0.2)
	cfg := WorkerConfig{Shard: 0, Shards: 2, Dir: t.TempDir()}
	check := func(name string) {
		t.Helper()
		data, err := os.ReadFile(ResultPath(cfg.Dir, 0, 2))
		if err != nil {
			t.Fatal(err)
		}
		if n, got := bytes.Count(data, []byte("\n")), fmt.Sprintf("%x", sha256.Sum256(data)); n != 32 || got != want {
			t.Errorf("%s: result has %d lines, SHA-256 %s; want 32 lines, %s", name, n, got, want)
		}
	}
	if _, err := RunWorker(context.Background(), eco, browser.Firefox88(), det, cfg); err != nil {
		t.Fatal(err)
	}
	check("uninterrupted")

	cfg.Dir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	crawler.CheckpointFailpoint = func(event string, appends int) {
		if event == "post" && appends == 10 {
			cancel()
		}
	}
	_, err := RunWorker(ctx, eco, browser.Firefox88(), det, cfg)
	crawler.CheckpointFailpoint = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled worker returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(ResultPath(cfg.Dir, 0, 2)); !os.IsNotExist(err) {
		t.Fatalf("a cancelled worker left a result file (stat: %v)", err)
	}
	if _, err := RunWorker(context.Background(), eco, browser.Firefox88(), det, cfg); err != nil {
		t.Fatal(err)
	}
	check("resumed")
}

// header is the header shard s's worker writes under the plan at the
// default crawl options, with the candidate-set pin pin: the header
// MergeDir reads each result under.
func (p *Plan) header(eco *webgen.Ecosystem, profile browser.Profile, s int, pin string) crawler.Header {
	return workerHeader(eco, profile, crawler.Options{}, s, p.Shards, pin)
}

// Indexes expands one shard's global site indexes in ascending (rank)
// order under the plan's interleave rule: the reference the tests hold
// Size and the worker's interleaved view to.
func (p *Plan) Indexes(shard int) []int {
	out := make([]int, 0, p.Size(shard))
	for i := shard; i < p.Universe; i += p.Shards {
		out = append(out, i)
	}
	return out
}
