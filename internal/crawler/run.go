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
// ctx cancels the run between sites and interrupts in-flight retry
// backoffs; the entry being crawled when cancellation lands is
// discarded (never checkpointed or emitted), so a resumed run stays
// byte-identical to an uninterrupted one.
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
	err := CrawlStream(ctx, eco, profile, opts, func(r SiteResult) error {
		mu.Lock()
		defer mu.Unlock()
		pending[r.Index] = r
		for p, ok := pending[next]; ok; p, ok = pending[next] {
			delete(pending, next)
			ds.Merge(p)
			next++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}
