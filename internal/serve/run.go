package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"piileak"
	"piileak/internal/cliflags"
	"piileak/internal/crawler"
	"piileak/internal/obs"
	"piileak/internal/resilience"
	"piileak/internal/site"
)

// Result file names under a job's working directory. leaks.json carries
// exactly the bytes `piicrawl -stream` would write for the same spec
// (same encoder, same indent); the table files carry the paper's text
// tables as the Study renders them.
const (
	FileCheckpoint = "checkpoint.jsonl"
	FileLeaks      = "leaks.json"
	FileTable1     = "table1.txt"
	FileTable2     = "table2.txt"
	FileTable4     = "table4.txt"
	FileMetrics    = "metrics.json"
)

// Progress is the SSE "progress" payload: one pipeline tick.
type Progress struct {
	Stage   string `json:"stage"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Site    string `json:"site,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Leaks   int    `json:"leaks,omitempty"`
}

// Resume is the SSE "resume" payload: what the job's checkpoint
// contributed to this attempt.
type Resume struct {
	Completed   int `json:"completed"`
	TornRecords int `json:"torn_records"`
}

// runJob executes one study attempt for job and, on success, writes the
// job's result files. Every attempt runs checkpointed with resume on:
// a fresh job simply finds no checkpoint, and a recovered or drained
// job continues from the sites its previous attempt completed — the
// crawl checkpoint's torn-tail tolerance makes the two cases one code
// path with byte-identical output.
func (s *Server) runJob(ctx context.Context, job *Job, lg *EventLog) error {
	spec := job.Spec
	study, err := piileak.NewStudy(spec.StudyConfig())
	if err != nil {
		return err
	}
	browserName := spec.Browser
	if browserName == "" {
		browserName = "firefox"
	}
	profile, err := cliflags.ResolveBrowser(browserName, study.Eco)
	if err != nil {
		return err
	}
	study.Config.Browser = profile

	jobDir := s.store.JobDir(job.ID)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}

	// Per-job observer: deterministic metrics for the job's
	// metrics.json, independent of the server's own counters.
	jobRun := obs.NewRun(nil)
	opts := []piileak.RunOption{
		piileak.WithCheckpoint(filepath.Join(jobDir, FileCheckpoint)),
		piileak.WithResume(func(rs crawler.ResumeSummary) {
			lg.Publish("resume", Resume{Completed: rs.Completed, TornRecords: rs.TornRecords})
		}),
		piileak.WithObserver(jobRun),
		piileak.WithProgress(func(ev piileak.Event) {
			lg.Publish("progress", Progress{
				Stage: ev.Stage, Done: ev.Done, Total: ev.Total,
				Site: ev.Site, Outcome: ev.Outcome, Leaks: ev.Leaks,
			})
		}),
	}
	if spec.Workers > 0 || spec.DetectWorkers > 0 {
		detect := spec.DetectWorkers
		if detect <= 0 {
			detect = spec.Workers
		}
		opts = append(opts, piileak.WithWorkers(spec.Workers, detect))
	}
	if d, err := spec.siteTimeout(); err == nil && d > 0 {
		opts = append(opts, piileak.WithSiteTimeout(d))
	}
	if spec.Retries > 0 {
		opts = append(opts, piileak.WithRetryPolicy(resilience.Policy{MaxAttempts: spec.Retries}))
	}
	if len(spec.Only) > 0 {
		sites, err := cliflags.SelectSites(study.Eco, strings.Join(spec.Only, ","))
		if err != nil {
			return err
		}
		opts = append(opts, piileak.WithSource(site.Slice(sites)))
	}

	if err := study.Run(ctx, opts...); err != nil {
		return err
	}
	return s.writeResults(jobDir, study, jobRun)
}

// writeResults persists the finished study's outputs atomically: each
// file lands whole via temp + rename, so a crash between run completion
// and the WAL's done mark leaves either no file or a complete one —
// and the resumed attempt rewrites them all from the same byte-stable
// renderers.
func (s *Server) writeResults(jobDir string, study *piileak.Study, jobRun *obs.Run) error {
	if err := writeFileAtomic(filepath.Join(jobDir, FileLeaks), study.WriteLeaksJSON); err != nil {
		return err
	}
	tables := []struct {
		name   string
		render func() (string, error)
	}{
		{FileTable1, study.Table1},
		{FileTable2, study.Table2},
		{FileTable4, study.Table4},
	}
	for _, t := range tables {
		text, err := t.render()
		if err != nil {
			return err
		}
		if err := writeFileAtomic(filepath.Join(jobDir, t.name), func(w io.Writer) error {
			_, err := io.WriteString(w, text)
			return err
		}); err != nil {
			return err
		}
	}
	return writeFileAtomic(filepath.Join(jobDir, FileMetrics), jobRun.WriteMetrics)
}

// writeFileAtomic streams write into path via a temp file + rename.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: write %s: %w", path, err)
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail(err)
	}
	return nil
}
