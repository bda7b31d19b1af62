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
// input order is irrelevant — results are keyed by their header's shard
// index — and the fold is the unsharded pipeline's own accumulator
// (pipeline.Accumulator): site i of shard s lands in global index slot
// s + i*K, so the merged leak slice, dataset and every table are
// byte-identical to the unsharded run's when all shards are present.
//
// Each result's header must be the one a worker of this plan writes —
// browser, seeds, universe, shard coordinates and fault settings —
// before a single line is folded; Merge has no detector, so the
// candidate-set pin is the one field it does not compare. ReadResult has
// already verified the trailer. Shards absent from results degrade the
// merge instead of failing it: their sites are simply not folded, and
// the report lists them under Missing with Partial set.
func Merge(eco *webgen.Ecosystem, profile browser.Profile, plan *Plan, results []*Result) (*pipeline.Result, *Report, error) {
	if err := plan.Verify(eco); err != nil {
		return nil, nil, err
	}
	byShard := make(map[int]*Result, len(results))
	for _, r := range results {
		if r == nil {
			continue
		}
		h := r.Header
		want := crawler.NewHeader(eco, profile, crawler.Options{Shard: h.Shard, Shards: plan.Shards}, h.Detect)
		want.FaultPin = plan.FaultPin
		if h != want {
			return nil, nil, fmt.Errorf("shard: result for shard %d was written for %s, the plan is for %s", h.Shard, h, want)
		}
		if _, dup := byShard[h.Shard]; dup {
			return nil, nil, fmt.Errorf("shard: two results claim shard %d", h.Shard)
		}
		byShard[h.Shard] = r
	}

	// ReadResult guaranteed each line's index is unique and inside its
	// shard, so two results can never fight over a slot; the domain
	// check catches a result whose lines are self-consistent but belong
	// to a different ecosystem layout or shard.
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
		for _, site := range r.Sites {
			g := s + site.Index*plan.Shards
			if want := universe.At(g).Domain; site.Crawl.Domain != want {
				return nil, nil, fmt.Errorf("shard %d: site %d is %s, ecosystem index %d is %s", s, site.Index, site.Crawl.Domain, g, want)
			}
			site.Index = g
			acc.Add(site)
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
// plan and merges them. Absent files degrade into the report; a file
// that exists but fails verification (trailer mismatch, torn tail,
// wrong run) is an error — corruption must never be silently dropped as
// "missing".
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
