package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/pipeline"
	"piileak/internal/webgen"
)

// ReportSchema versions the merge report layout.
const ReportSchema = 1

// Report is the sharded run's machine-readable outcome: which shards
// merged, which were lost and what sites went with them, and how hard
// the supervisor had to fight. It is written as report.json next to the
// shard results, so a degraded run's gaps are auditable data, not a log
// line.
type Report struct {
	Schema int `json:"schema"`
	Shards int `json:"shards"`
	// Completed lists the shard indexes that produced a verified result,
	// ascending.
	Completed []int `json:"completed"`
	// Missing lists the shards that did not, with the sites each one
	// took down. Empty on a full merge.
	Missing []MissingShard `json:"missing,omitempty"`
	// Partial is true when any shard is missing: the merged tables cover
	// only the completed shards' sites.
	Partial bool `json:"partial"`
	// MergedSites counts the site records folded into the result.
	MergedSites int `json:"merged_sites"`
	// Leaks counts the merged leak records.
	Leaks int `json:"leaks"`
	// Attempts sums worker attempts per shard (supervised runs).
	Attempts map[int]int `json:"attempts,omitempty"`
	// Restarts sums supervisor restarts per shard (supervised runs).
	Restarts map[int]int `json:"restarts,omitempty"`
	// Stalls counts watchdog kills per shard (supervised subprocess
	// runs).
	Stalls map[int]int `json:"stalls,omitempty"`
}

// MissingShard records one shard that exhausted its retry budget: its
// coordinates, the terminal error, and the exact site population the
// merged tables are missing because of it.
type MissingShard struct {
	Shard    int      `json:"shard"`
	Attempts int      `json:"attempts,omitempty"`
	Error    string   `json:"error,omitempty"`
	Sites    []string `json:"sites"`
	// StderrTail is the last ~20 stderr lines of the final failed
	// attempt's re-execed worker — the dying words a bare exit status
	// loses. In-process workers have no separate stderr, so it is only
	// populated in subprocess mode.
	StderrTail []string `json:"stderr_tail,omitempty"`
}

// ReportPath is the merge report's location under a shard directory.
func ReportPath(dir string) string { return filepath.Join(dir, "report.json") }

// The names of shard s-of-K's checkpoint and of its result file — the
// checkpoint, sealed and renamed — under a shard directory.
const (
	checkpointName = "ckpt-%d-of-%d"
	resultName     = "shard-%d-of-%d.jsonl"
)

// ResultPath is shard s-of-K's result file under a shard directory.
func ResultPath(dir string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf(resultName, shard, shards))
}

// CheckpointPath is shard s-of-K's checkpoint under a shard directory.
func CheckpointPath(dir string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf(checkpointName, shard, shards))
}

// MergeDir merges the shard results under dir per the plan (merge),
// each read under the header a worker writes at the default retry
// policy and no site timeout. A shard with no result file is missing; a
// file that exists but fails verification (a trailer mismatch, a torn
// tail, another run's header) is an error: corruption must never be
// silently dropped as "missing".
func MergeDir(eco *webgen.Ecosystem, profile browser.Profile, plan *Plan, dir string) (*pipeline.Result, *Report, error) {
	return merge(eco, profile, plan, dir, crawler.Options{}, func(s int) bool {
		_, err := os.Stat(ResultPath(dir, s, plan.Shards))
		return err == nil
	})
}

// merge folds the result files of the shards read accepts back into one
// study result, each as it is read; the other shards are missing. The
// fold is the unsharded pipeline's own accumulator (pipeline.Accumulator):
// site i of shard s lands in global index slot s + i*K, so the merged
// leak slice, dataset and every table are byte-identical to the
// unsharded run's when all shards are present.
//
// The files are read side by side, each once, on its own goroutine,
// through crawler.ReadSealed: its header must be the one its worker
// writes under crawl (workerHeader) — browser, seeds, universe, shard
// coordinates and fault settings — and its trailer must match its
// lines; each line is decoded once, checked against the shard's sites
// and folded, one site at a time, as it is read (the fold does not
// depend on arrival order). Once every read has ended, the errors are
// reported in shard order, and every shard read must carry the
// candidate-set pin of the first, since the merge has no detector. A
// missing shard degrades the merge instead of failing it: its sites are
// not folded, and the report lists them under Missing with Partial set.
func merge(eco *webgen.Ecosystem, profile browser.Profile, plan *Plan, dir string, crawl crawler.Options, read func(s int) bool) (*pipeline.Result, *Report, error) {
	if n := eco.Universe().Len(); plan.Universe != n {
		return nil, nil, fmt.Errorf("shard: plan partitions %d sites, the ecosystem has %d", plan.Universe, n)
	}
	acc := pipeline.NewAccumulator(plan.Universe)
	report := &Report{Schema: ReportSchema, Shards: plan.Shards}
	hdrs := make([]crawler.Header, plan.Shards)
	errs := make([]error, plan.Shards)
	var mu sync.Mutex // guards acc
	var wg sync.WaitGroup
	for s := 0; s < plan.Shards; s++ {
		if !read(s) {
			report.Missing = append(report.Missing, MissingShard{
				Shard: s,
				Sites: plan.Domains(eco, s),
			})
			continue
		}
		report.Completed = append(report.Completed, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			hdrs[s], errs[s] = crawler.ReadSealed(ResultPath(dir, s, plan.Shards), workerHeader(eco, profile, crawl, s, plan.Shards, ""), plan.source(eco, s), func(r crawler.SiteResult) {
				r.Index = s + r.Index*plan.Shards
				mu.Lock()
				acc.Add(&r)
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	for _, s := range report.Completed {
		err := errs[s]
		if first := report.Completed[0]; err == nil && hdrs[s].Detect != hdrs[first].Detect {
			err = fmt.Errorf("%s: %w: candidate set %s, shard %d's is %s", ResultPath(dir, s, plan.Shards), crawler.ErrOtherRun, hdrs[s].Detect, first, hdrs[first].Detect)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("shard: merge shard %d: %w", s, err)
		}
	}
	report.Partial = len(report.Missing) > 0

	res := acc.Result(eco, profile)
	report.MergedSites = res.Stats.Sites
	report.Leaks = len(res.Leaks)
	return res, report, nil
}
