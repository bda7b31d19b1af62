package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"piileak"
	"piileak/internal/crawler"
	"piileak/internal/obs"
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
// job's result files. The spec runs as piicrawl -stream runs the same
// flags — one study config, browser profile, site subset and option
// list — and the server adds only its own checkpoint, resume, observer
// and progress options. Every attempt runs checkpointed with resume on:
// a fresh job simply finds no checkpoint, and a recovered or drained
// job continues from the sites its previous attempt completed — the
// crawl checkpoint's torn-tail tolerance makes the two cases one code
// path with byte-identical output.
func (s *Server) runJob(ctx context.Context, job *Job, lg *EventLog) error {
	c, err := job.Spec.flags()
	if err != nil {
		return err
	}
	study, err := piileak.NewStudy(c.StudyConfig())
	if err != nil {
		return err
	}
	profile, err := c.ResolveProfile(study.Eco)
	if err != nil {
		return err
	}
	study.Config.Browser = profile
	rt, err := c.Runtime(study.Eco)
	if err != nil {
		return err
	}

	jobDir := s.store.JobDir(job.ID)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}

	// Per-job observer: deterministic metrics for the job's
	// metrics.json, independent of the server's own counters.
	jobRun := obs.NewRun()
	opts := append(c.RunOptions(rt, "piiserve", nil),
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
	)
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
	write := func(name string, render func(io.Writer) error) error {
		path := filepath.Join(jobDir, name)
		if err := crawler.WriteFileAtomic(path, render); err != nil {
			return fmt.Errorf("serve: write %s: %w", path, err)
		}
		return nil
	}
	if err := write(FileLeaks, study.WriteLeaksJSON); err != nil {
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
		if err := write(t.name, func(w io.Writer) error {
			_, err := io.WriteString(w, text)
			return err
		}); err != nil {
			return err
		}
	}
	return write(FileMetrics, jobRun.WriteMetrics)
}
