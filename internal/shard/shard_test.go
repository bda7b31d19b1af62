package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/faultsim"
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

// TestPlanDeterministicInterleaved: the planner's contract — stable
// bytes, rank-interleaved assignment, sizes within one, full coverage,
// and a clean round trip through disk.
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
		ab, err := a.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("K=%d: two plans over the same ecosystem marshal differently", k)
		}
		if err := a.Verify(eco); err != nil {
			t.Errorf("K=%d: fresh plan fails Verify: %v", k, err)
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

		dir := t.TempDir()
		if err := WritePlan(dir, a); err != nil {
			t.Fatal(err)
		}
		rt, err := ReadPlan(PlanPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Verify(eco); err != nil {
			t.Errorf("K=%d: round-tripped plan fails Verify: %v", k, err)
		}
		if !reflect.DeepEqual(a, rt) {
			t.Errorf("K=%d: plan changed through the disk round trip", k)
		}
	}
	if _, err := NewPlan(eco, 0); err == nil {
		t.Error("NewPlan accepted 0 shards")
	}
}

// TestPlanVerifyRejectsForeign: a plan from another study — different
// seed, edited domains, wrong universe — must fail verification, and
// structurally-broken plan bytes must fail the read-time parse.
func TestPlanVerifyRejectsForeign(t *testing.T) {
	eco, _, _, _ := fixture(t)
	other := webgen.MustGenerate(webgen.SmallConfig(fixtureSeed + 1))
	plan, err := NewPlan(eco, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(other); err == nil {
		t.Error("plan verified against a different ecosystem")
	}

	edited, err := NewPlan(eco, 3)
	if err != nil {
		t.Fatal(err)
	}
	edited.Interleave = "round-robin"
	if err := edited.Verify(eco); err == nil {
		t.Error("plan with an unknown interleave rule verified")
	}

	shrunk, err := NewPlan(eco, 3)
	if err != nil {
		t.Fatal(err)
	}
	shrunk.Universe--
	if err := shrunk.Verify(eco); err == nil {
		t.Error("plan with a wrong universe verified")
	}

	legacy, err := NewPlan(eco, 3)
	if err != nil {
		t.Fatal(err)
	}
	legacy.Schema = 1
	if err := legacy.Verify(eco); err == nil {
		t.Error("legacy schema-1 plan verified")
	} else if !bytes.Contains([]byte(err.Error()), []byte("legacy")) {
		t.Errorf("legacy schema-1 plan rejected without the legacy hint: %v", err)
	}

	good, err := plan.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string][]byte{
		"torn tail":        good[:len(good)/2],
		"empty":            nil,
		"not json":         []byte("plan?\n"),
		"wrong schema":     bytes.Replace(good, []byte(`"schema": 2`), []byte(`"schema": 9`), 1),
		"legacy schema":    bytes.Replace(good, []byte(`"schema": 2`), []byte(`"schema": 1`), 1),
		"zero shards":      bytes.Replace(good, []byte(`"shards": 3`), []byte(`"shards": 0`), 1),
		"wrong interleave": bytes.Replace(good, []byte("rank-mod-shards"), []byte("round-robin"), 1),
	} {
		if p, err := parsePlan(corrupt); err == nil || p != nil {
			t.Errorf("%s: parsePlan returned (%v, %v), want (nil, error)", name, p, err)
		}
	}
}

// TestResultRejectsTampering: the merge trusts a result file only after
// the digest and the structural invariants hold; every class of
// corruption must be rejected with the file intact on disk.
func TestResultRejectsTampering(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	path, err := RunWorker(context.Background(), eco, profile, det, WorkerConfig{
		Shard: 0, Shards: 2, Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := ReadResult(path)
	if err != nil {
		t.Fatalf("fresh worker result fails verification: %v", err)
	}
	if good.Manifest.Shard != 0 || good.Manifest.Shards != 2 || good.Manifest.Universe != len(eco.Sites) {
		t.Fatalf("manifest coordinates %d/%d universe %d look wrong", good.Manifest.Shard, good.Manifest.Shards, good.Manifest.Universe)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ := bytes.Cut(raw, []byte("\n"))

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-2] ^= 0x20 // inside the last site line
	truncated := raw[:len(raw)-10]
	headless := body

	var m Manifest
	if err := json.Unmarshal(head, &m); err != nil {
		t.Fatal(err)
	}
	m.Sites++ // digest still matches the body; the count does not
	editedHead, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	overcounted := append(append(editedHead, '\n'), body...)

	for name, data := range map[string][]byte{
		"flipped body byte": flipped,
		"truncated tail":    truncated,
		"missing manifest":  headless,
		"edited site count": overcounted,
	} {
		if res, err := parseResult("tampered", data); err == nil || res != nil {
			t.Errorf("%s: parseResult returned (%v, %v), want (nil, error)", name, res, err)
		}
	}

	// A writer can also lie structurally with a valid digest: records out
	// of order, or filed under the wrong shard. WriteResult recomputes
	// the digest, so only the structural checks can catch these.
	if len(good.Records) >= 2 {
		swapped := append([]SiteRecord(nil), good.Records...)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		p := ResultPath(dir, 0, 2) + ".swapped"
		if err := WriteResult(p, good.Manifest, swapped); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadResult(p); err == nil {
			t.Error("out-of-order records passed verification")
		}
	}
	wrongShard := good.Manifest
	wrongShard.Shard = 1
	p := ResultPath(dir, 1, 2) + ".stolen"
	if err := WriteResult(p, wrongShard, good.Records); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResult(p); err == nil {
		t.Error("shard 0's records passed verification as shard 1")
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

// TestMergeOrderIndependent: results are keyed by their manifests, so
// feeding them to Merge in any order produces identical output.
func TestMergeOrderIndependent(t *testing.T) {
	eco, profile, _, _ := fixture(t)
	dir := t.TempDir()
	plan := runShards(t, dir, 3)
	var results []*Result
	for s := 0; s < 3; s++ {
		r, err := ReadResult(ResultPath(dir, s, 3))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	orders := [][]*Result{
		{results[0], results[1], results[2]},
		{results[2], results[1], results[0]},
		{results[1], results[2], results[0]},
	}
	var want []byte
	for i, order := range orders {
		res, report, err := Merge(eco, profile, plan, order)
		if err != nil {
			t.Fatal(err)
		}
		if report.Partial {
			t.Fatalf("order %d: partial", i)
		}
		got := leaksJSON(t, res.Leaks)
		if i == 0 {
			want = got
			assertMatchesReference(t, res)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("order %d: merged leaks depend on input order", i)
		}
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
// errors, never silently folded or dropped — duplicate shards, foreign
// seeds, wrong splits, and records whose domains contradict the
// ecosystem.
func TestMergeRejectsMismatchedResults(t *testing.T) {
	eco, profile, _, _ := fixture(t)
	dir := t.TempDir()
	plan := runShards(t, dir, 2)
	r0, err := ReadResult(ResultPath(dir, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ReadResult(ResultPath(dir, 1, 2))
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := Merge(eco, profile, plan, []*Result{r0, r1, r0}); err == nil {
		t.Error("duplicate shard result merged")
	}

	foreign := *r0
	foreign.Manifest.EcoSeed++
	if _, _, err := Merge(eco, profile, plan, []*Result{&foreign, r1}); err == nil {
		t.Error("result with a foreign eco seed merged")
	}

	split := *r0
	split.Manifest.Shards = 4
	if _, _, err := Merge(eco, profile, plan, []*Result{&split, r1}); err == nil {
		t.Error("result from a different split merged")
	}

	liar := *r0
	liar.Records = append([]SiteRecord(nil), r0.Records...)
	liar.Records[0].Crawl.Domain = "impostor.example"
	if _, _, err := Merge(eco, profile, plan, []*Result{&liar, r1}); err == nil {
		t.Error("record with a contradicting domain merged")
	}

	// A corrupt file on disk is an error for MergeDir too — corruption
	// must never be reinterpreted as "missing".
	path := ResultPath(dir, 0, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MergeDir(eco, profile, plan, dir); err == nil {
		t.Error("MergeDir silently skipped a corrupt result file")
	}
}
