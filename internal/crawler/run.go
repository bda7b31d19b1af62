package crawler

import (
	"context"
	"sync"

	"piileak/internal/browser"
	"piileak/internal/webgen"
)

// Run executes the §3.2 flow over the options' site population and
// returns the dataset. It is CrawlStream plus an in-order merge: a site
// that finishes ahead of an earlier one waits until every earlier site
// has merged, so the dataset — records, mailbox stream and per-receiver
// block counters — is byte-identical at any worker count and across
// checkpoint resumes, and only out-of-order sites are ever held aside.
// With CheckpointPath set, Run owns the checkpoint: each crawled site is
// appended with its records before it merges, and a resume merges the
// file's sites and crawls only the rest; a completed run completes the
// checkpoint (Checkpoint.Complete). ctx cancels the run between
// sites and interrupts in-flight retry backoffs; the site being crawled
// when cancellation lands is discarded (never appended or merged), so a
// resumed run stays byte-identical to an uninterrupted one.
func Run(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, opts Options) (*Dataset, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ds := DatasetShell(eco, profile)
	var (
		mu      sync.Mutex
		next    int
		pending = map[int]SiteResult{}
	)
	merge := func(r SiteResult) {
		pending[r.Index] = r
		for p, ok := pending[next]; ok; p, ok = pending[next] {
			delete(pending, next)
			ds.appendSite(p)
			next++
		}
	}
	var ckpt *Checkpoint
	if opts.CheckpointPath != "" {
		var err error
		if ckpt, err = OpenCheckpoint(eco, profile, opts, "", merge); err != nil {
			return nil, err
		}
		defer ckpt.Close()
		opts.Source = ckpt.Unfinished(opts.source(eco))
	}
	err := CrawlStream(ctx, eco, profile, opts, func(r SiteResult) error {
		if ckpt != nil {
			if err := ckpt.Append(&r); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		merge(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ckpt != nil {
		if err := ckpt.Complete(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}
