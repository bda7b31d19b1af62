package crawler

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

// Quarantine is where panicked sites land: one diagnostics bundle per
// crashed site, written as <domain>.json next to an append-only
// MANIFEST.jsonl, so a poison site can be inspected and re-run
// individually (piicrawl -only <domain>) while the study continues.
//
// The quarantine is diagnostics, not dataset: bundle files are written
// in completion order and never feed back into analysis, so they carry
// wall-context (stacks) without threatening determinism.
type Quarantine struct {
	mu        sync.Mutex
	dir       string
	suffix    string // shard label baked into every path ("" = unsharded)
	bundles   []CrashBundle
	limit     int      // max persisted bundle files (0 = unbounded)
	persisted []string // bundle file paths in write (eviction) order
}

// Bundle stage markers. StageEvict marks a manifest record noting that
// an older bundle file was evicted to stay under the disk cap — the
// manifest keeps the full crash history even when the bundle bytes are
// gone.
const (
	StageCrawl  = "crawl"
	StageDetect = "detect"
	StageEvict  = "evict"
)

// CrashBundle is one quarantined site's diagnostics: everything needed
// to reproduce the crash in isolation — the stage that panicked, the
// ecosystem and fault seeds, the last request in flight, and the stack.
type CrashBundle struct {
	Stage       string  `json:"stage"` // "crawl" or "detect"
	Domain      string  `json:"domain"`
	Rank        int     `json:"rank"`
	Panic       string  `json:"panic"`
	Stack       string  `json:"stack"`
	EcoSeed     uint64  `json:"eco_seed"`
	FaultSeed   uint64  `json:"fault_seed,omitempty"`
	LastRequest string  `json:"last_request,omitempty"`
	Records     int     `json:"records"`
	Outcome     Outcome `json:"outcome"`
}

// NewQuarantine opens (creating if needed) a quarantine directory.
func NewQuarantine(dir string) (*Quarantine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("crawler: quarantine %s: %w", dir, err)
	}
	return &Quarantine{dir: dir}, nil
}

// NewQuarantineShard opens a quarantine scoped to one shard of a
// sharded study. Every path it writes — the manifest and the per-site
// bundles — carries a shard-unique suffix, so K concurrent shards can
// share one -quarantine directory without colliding on the manifest or
// interleaving appends within it.
func NewQuarantineShard(dir string, shard, shards int) (*Quarantine, error) {
	q, err := NewQuarantine(dir)
	if err != nil {
		return nil, err
	}
	q.suffix = fmt.Sprintf(".shard-%d-of-%d", shard, shards)
	return q, nil
}

// ManifestPath returns the quarantine's manifest file path
// (shard-unique under NewQuarantineShard).
func (q *Quarantine) ManifestPath() string {
	return filepath.Join(q.dir, "MANIFEST"+q.suffix+".jsonl")
}

// SetLimit caps how many bundle files this quarantine keeps on disk
// (0 = unbounded). When a new bundle would exceed the cap, the oldest
// persisted bundle file is deleted and the eviction is recorded in
// MANIFEST.jsonl (a StageEvict line naming the domain), so a
// pathological fault seed under a long-running server degrades to
// "recent crashes keep full diagnostics, older ones keep their manifest
// history" instead of filling the disk. The in-memory bundle list — and
// with it Len, Sites and the end-of-run summary — still covers every
// crashed site. Nil-receiver safe.
func (q *Quarantine) SetLimit(n int) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if n < 0 {
		n = 0
	}
	q.limit = n
}

// evictLocked deletes the oldest persisted bundle files until the disk
// cap holds, appending one StageEvict manifest record per deletion.
// Best-effort like every quarantine write; must be called with the lock
// held.
func (q *Quarantine) evictLocked() {
	for q.limit > 0 && len(q.persisted) > q.limit {
		oldest := q.persisted[0]
		q.persisted = q.persisted[1:]
		if err := os.Remove(oldest); err != nil && !os.IsNotExist(err) {
			continue
		}
		domain := strings.TrimSuffix(filepath.Base(oldest), q.suffix+".json")
		q.appendManifestLocked(CrashBundle{Stage: StageEvict, Domain: domain})
	}
}

// appendManifestLocked appends one record to the manifest, best-effort.
func (q *Quarantine) appendManifestLocked(b CrashBundle) {
	line, err := json.Marshal(b)
	if err != nil {
		return
	}
	f, err := os.OpenFile(q.ManifestPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close() //lint:allow closecheck quarantine persistence is best-effort by design; the write is synced above the close
	f.Write(append(line, '\n'))
	f.Sync()
}

// Add records one crashed site: the bundle file is written whole
// (WriteFileAtomic) and a line is appended to the manifest. Safe
// on a nil receiver — the no-quarantine-dir path, where the crash is
// still recovered and the site still marked OutcomeCrashed, just
// without persisted diagnostics. Persistence errors are swallowed: a
// full disk under the quarantine dir must not kill the study the
// quarantine exists to protect.
func (q *Quarantine) Add(b CrashBundle) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.bundles = append(q.bundles, b)

	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return
	}
	path := filepath.Join(q.dir, b.Domain+q.suffix+".json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	}); err != nil {
		return
	}
	q.persisted = append(q.persisted, path)

	q.appendManifestLocked(b)
	q.evictLocked()
}

// Len reports how many sites are quarantined.
func (q *Quarantine) Len() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.bundles)
}

// Sites returns the quarantined domains, sorted — parallel workers add
// bundles in completion order, and the summary must not echo that
// nondeterminism.
func (q *Quarantine) Sites() []string {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, 0, len(q.bundles))
	for _, b := range q.bundles {
		out = append(out, b.Domain)
	}
	sort.Strings(out)
	return out
}

// BundleFor assembles the diagnostics for a recovered panic. It must
// be called from inside the recovering deferred function so the stack
// it captures still shows the panicking frames.
func BundleFor(stage string, crawl *SiteCrawl, ecoSeed, faultSeed uint64, panicked any) CrashBundle {
	b := CrashBundle{
		Stage:     stage,
		Domain:    crawl.Domain,
		Rank:      crawl.Rank,
		Panic:     fmt.Sprint(panicked),
		Stack:     string(debug.Stack()),
		EcoSeed:   ecoSeed,
		FaultSeed: faultSeed,
		Records:   len(crawl.Records),
		Outcome:   crawl.Outcome,
	}
	if n := len(crawl.Records); n > 0 {
		b.LastRequest = crawl.Records[n-1].Request.URL
	}
	return b
}
