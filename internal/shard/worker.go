package shard

import (
	"context"
	"fmt"
	"os"
	"sort"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/pipeline"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// WorkerConfig scopes one shard worker's run.
type WorkerConfig struct {
	// Shard/Shards are the worker's coordinates: it crawls global site
	// indexes congruent to Shard mod Shards, in rank order.
	Shard, Shards int
	// Dir is the shard directory holding the worker's checkpoint and
	// result file.
	Dir string
	// Workers/DetectWorkers/Buffer are the per-shard pipeline knobs,
	// passed through to pipeline.Options.
	Workers, DetectWorkers, Buffer int
	// Options carries the remaining crawl knobs — faults, policy, site
	// timeout, observer. Source, CheckpointPath, Resume, Shard/Shards
	// and Quarantine are owned by the worker and overwritten.
	Options crawler.Options
	// QuarantineDir, when set, collects crash bundles under shard-unique
	// paths so K workers can share the directory. QuarantineMax caps the
	// bundle files this worker keeps on disk (oldest evicted first, 0 =
	// unbounded).
	QuarantineDir string
	QuarantineMax int
	// Checkpoint overrides the shard's derived checkpoint path; "" uses
	// CheckpointPath(Dir, Shard, Shards). The header's shard label is
	// stamped either way, so a foreign checkpoint is refused, not
	// silently mixed in.
	Checkpoint string
}

// interleaveSource is one shard's lazy view of the universe: local
// index j maps to global index shard + j*shards. It materializes
// nothing — each At defers to the underlying source — so a worker over
// a lazy universe derives only the sites the crawl actually reaches,
// never the whole universe.
type interleaveSource struct {
	src           site.Source
	shard, shards int
}

func (s interleaveSource) Len() int {
	n := s.src.Len()
	if s.shard >= n {
		return 0
	}
	return (n - s.shard + s.shards - 1) / s.shards
}

func (s interleaveSource) At(j int) *site.Site {
	return s.src.At(s.shard + j*s.shards)
}

// RunWorker executes one shard end to end: crawl + detect + accumulate
// over the shard's interleaved site slice, checkpointed so a restart
// resumes instead of recrawling, finishing by atomically writing the
// shard's digest-bearing result file. It returns the result path.
//
// The shard's population is a lazy interleaved view of the ecosystem's
// universe — sites materialize one at a time as the crawl reaches
// them, so the worker's peak site memory is proportional to its shard,
// not the universe.
//
// Resume is unconditional — a missing checkpoint is a fresh start, and
// a supervisor restart picks up exactly where the dead attempt's
// checkpoint left off. The supervisor, not the worker, owns clearing
// stale state for non-resume runs.
func RunWorker(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, det pipeline.Detector, cfg WorkerConfig) (string, error) {
	if cfg.Shards < 1 || cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return "", fmt.Errorf("shard: worker coordinates %d/%d are invalid", cfg.Shard, cfg.Shards)
	}
	if cfg.Dir == "" {
		return "", fmt.Errorf("shard: worker needs a shard directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("shard: create dir: %w", err)
	}
	universe := eco.Universe()
	src := interleaveSource{src: universe, shard: cfg.Shard, shards: cfg.Shards}
	if src.Len() == 0 {
		return "", fmt.Errorf("shard: shard %d of %d is empty (universe %d)", cfg.Shard, cfg.Shards, universe.Len())
	}

	opts := pipeline.Options{
		DetectWorkers: cfg.DetectWorkers,
		Buffer:        cfg.Buffer,
	}
	opts.Options = cfg.Options
	opts.Workers = cfg.Workers
	opts.Shard, opts.Shards = cfg.Shard, cfg.Shards
	opts.Source = src
	opts.CheckpointPath = cfg.Checkpoint
	if opts.CheckpointPath == "" {
		opts.CheckpointPath = CheckpointPath(cfg.Dir, cfg.Shard, cfg.Shards)
	}
	opts.Resume = true

	// Collect per-site outputs — the sink sees them in completion order,
	// and local position j maps back to global index Shard + j*Shards.
	// The result file lists them in site order, sorted once the run ends.
	recs := make([]SiteRecord, 0, src.Len())
	opts.Sink = func(out pipeline.SiteOut) {
		recs = append(recs, SiteRecord{
			Index:   cfg.Shard + out.Result.Index*cfg.Shards,
			Crawl:   out.Result.Crawl,
			Mail:    out.Result.Mail,
			Blocked: out.Result.Blocked,
			Records: out.Records,
			Leaks:   out.Leaks,
			Reqs:    out.Requests,
		})
	}

	if cfg.QuarantineDir != "" {
		q, err := crawler.NewQuarantineShard(cfg.QuarantineDir, cfg.Shard, cfg.Shards)
		if err != nil {
			return "", err
		}
		q.SetLimit(cfg.QuarantineMax)
		opts.Quarantine = q
	}

	if _, err := pipeline.Run(ctx, eco, profile, det, opts); err != nil {
		return "", err
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })

	m := Manifest{
		EcoSeed:  eco.Config.Seed,
		Browser:  profile.Name + " " + profile.Version,
		Shards:   cfg.Shards,
		Shard:    cfg.Shard,
		Universe: universe.Len(),
	}
	if inj := cfg.Options.Faults; inj != nil {
		m.FaultSeed = inj.Seed()
	} else if eco.Faults != nil {
		m.FaultSeed = eco.Faults.Seed()
	}
	path := ResultPath(cfg.Dir, cfg.Shard, cfg.Shards)
	if err := WriteResult(path, m, recs); err != nil {
		return "", err
	}
	return path, nil
}
