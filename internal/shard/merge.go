package shard

import (
	"fmt"
	"os"
	"path/filepath"

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

// Merge folds verified shard results back into one study result. The
// input order is irrelevant — results are keyed by their manifest's
// shard index — and the fold is the unsharded pipeline's own
// accumulator (pipeline.Accumulator): every site lands in its global
// index slot, so the merged leak slice, dataset and every table are
// byte-identical to the unsharded run's when all shards are present.
//
// Each result's manifest is cross-checked against the plan (seeds,
// shard count, universe) before a single record is folded; ReadResult
// has already verified the content digest. Shards absent from results
// degrade the merge instead of failing it: their sites are simply not
// folded, and the report lists them under Missing with Partial set.
func Merge(eco *webgen.Ecosystem, profile browser.Profile, plan *Plan, results []*Result) (*pipeline.Result, *Report, error) {
	if err := plan.Verify(eco); err != nil {
		return nil, nil, err
	}
	byShard := make(map[int]*Result, len(results))
	for _, r := range results {
		if r == nil {
			continue
		}
		m := r.Manifest
		if m.Shards != plan.Shards {
			return nil, nil, fmt.Errorf("shard: result for shard %d is %d-way, plan is %d-way", m.Shard, m.Shards, plan.Shards)
		}
		if m.EcoSeed != plan.EcoSeed || m.FaultSeed != plan.FaultSeed {
			return nil, nil, fmt.Errorf("shard: result for shard %d has seeds (%d, %d), plan has (%d, %d)", m.Shard, m.EcoSeed, m.FaultSeed, plan.EcoSeed, plan.FaultSeed)
		}
		if m.Universe != plan.Universe {
			return nil, nil, fmt.Errorf("shard: result for shard %d covers universe %d, plan has %d", m.Shard, m.Universe, plan.Universe)
		}
		if _, dup := byShard[m.Shard]; dup {
			return nil, nil, fmt.Errorf("shard: two results claim shard %d", m.Shard)
		}
		byShard[m.Shard] = r
	}

	// ReadResult guaranteed each record's index is congruent to its
	// shard, so two results can never fight over a slot; the domain
	// check catches a result whose indexes are self-consistent but
	// belong to a different ecosystem layout.
	acc := pipeline.NewAccumulator(plan.Universe)
	report := &Report{Schema: ReportSchema, Shards: plan.Shards}
	universe := eco.Universe()
	for s := 0; s < plan.Shards; s++ {
		r, ok := byShard[s]
		if !ok {
			report.Missing = append(report.Missing, MissingShard{
				Shard: s,
				Sites: plan.Domains(eco, s),
			})
			continue
		}
		for i := range r.Records {
			rec := &r.Records[i]
			if want := universe.At(rec.Index).Domain; rec.Crawl.Domain != want {
				return nil, nil, fmt.Errorf("shard %d: record %d is %s, ecosystem index %d is %s", s, i, rec.Crawl.Domain, rec.Index, want)
			}
			acc.Add(pipeline.SiteOut{
				Result:   crawler.SiteResult{Index: rec.Index, Crawl: rec.Crawl, Mail: rec.Mail, Blocked: rec.Blocked},
				Leaks:    rec.Leaks,
				Requests: rec.Reqs,
				Records:  rec.Records,
			})
		}
		report.Completed = append(report.Completed, s)
	}
	report.Partial = len(report.Missing) > 0

	res := acc.Result(eco, profile)
	report.MergedSites = res.Stats.Sites
	report.Leaks = len(res.Leaks)
	return res, report, nil
}

// MergeDir reads every completed shard's result file under dir per the
// plan and merges them. Missing or unreadable-but-absent files degrade
// into the report; a file that exists but fails verification (digest
// mismatch, torn tail, wrong run) is an error — corruption must never
// be silently dropped as "missing".
func MergeDir(eco *webgen.Ecosystem, profile browser.Profile, plan *Plan, dir string) (*pipeline.Result, *Report, error) {
	var results []*Result
	for s := 0; s < plan.Shards; s++ {
		path := ResultPath(dir, s, plan.Shards)
		if _, err := os.Stat(path); err != nil {
			continue
		}
		r, err := ReadResult(path)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
	}
	return Merge(eco, profile, plan, results)
}
