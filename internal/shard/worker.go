package shard

import (
	"context"
	"fmt"
	"os"

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
	// Dir is the shard directory holding the worker's checkpoint,
	// which the completed run seals and the worker renames into its
	// result file.
	Dir string
	// Workers/DetectWorkers are the per-shard pipeline knobs, passed
	// through to pipeline.Options.
	Workers, DetectWorkers int
	// Options carries the remaining crawl knobs — policy, site timeout,
	// observer. Source, CheckpointPath, Resume, Shard/Shards
	// and Quarantine are owned by the worker and overwritten.
	Options crawler.Options
	// QuarantineDir, when set, collects crash bundles under shard-unique
	// paths so K workers can share the directory. QuarantineMax caps the
	// bundle files this worker keeps on disk (oldest evicted first, 0 =
	// unbounded).
	QuarantineDir string
	QuarantineMax int
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

func (s interleaveSource) Len() int { return s.span(s.src.Len()) }

// span is the shard's site count in a universe of n sites:
// ceil((n - shard) / shards), never negative.
func (s interleaveSource) span(n int) int {
	if s.shard >= n {
		return 0
	}
	return (n - s.shard + s.shards - 1) / s.shards
}

func (s interleaveSource) At(j int) *site.Site {
	return s.src.At(s.shard + j*s.shards)
}

// RunWorker executes one shard end to end: crawl + detect + accumulate
// over the shard's interleaved site slice, checkpointed at
// CheckpointPath so a restart resumes instead of recrawling. The
// completed run seals its checkpoint (crawler.Checkpoint.Complete),
// which RunWorker renames into the shard's result file, whose path it
// returns. A finished worker run again returns its verified result and
// crawls nothing.
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

	opts := pipeline.Options{DetectWorkers: cfg.DetectWorkers}
	opts.Options = cfg.Options
	opts.Workers = cfg.Workers
	opts.Shard, opts.Shards = cfg.Shard, cfg.Shards
	opts.Source = src
	opts.CheckpointPath = CheckpointPath(cfg.Dir, cfg.Shard, cfg.Shards)
	opts.Resume = true

	path := ResultPath(cfg.Dir, cfg.Shard, cfg.Shards)
	if _, err := crawler.ReadSealed(path, workerHeader(eco, profile, cfg.Options, cfg.Shard, cfg.Shards, pipeline.DetectPin(det)), src, nil); err == nil {
		return path, nil
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
	if err := os.Rename(opts.CheckpointPath, path); err != nil {
		return "", fmt.Errorf("shard: %w", err)
	}
	return path, nil
}

// workerHeader is the checkpoint header shard s of shards writes when
// its worker crawls under opts with the candidate-set pin pin: the
// header a worker checks its result against, a supervisor checks every
// shard file against, and a merge reads each result under.
func workerHeader(eco *webgen.Ecosystem, profile browser.Profile, opts crawler.Options, s, shards int, pin string) crawler.Header {
	opts.Shard, opts.Shards = s, shards
	return crawler.NewHeader(eco, profile, opts, pin)
}
