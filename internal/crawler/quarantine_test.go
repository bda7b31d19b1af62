package crawler

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// readManifest loads a quarantine manifest's bundles.
func readManifest(t *testing.T, path string) []CrashBundle {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []CrashBundle
	for dec := json.NewDecoder(f); dec.More(); {
		var b CrashBundle
		if err := dec.Decode(&b); err != nil {
			t.Fatalf("quarantine manifest %s: %v", path, err)
		}
		out = append(out, b)
	}
	return out
}

// TestQuarantineDiskCapEvictsOldest pins the -quarantine-max contract:
// the oldest persisted bundle files are deleted once the cap is
// exceeded, each eviction lands in the manifest as a StageEvict record,
// and the in-memory view (Len, Sites, the end-of-run summary's inputs)
// still covers every crashed site.
func TestQuarantineDiskCapEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	q, err := NewQuarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	q.SetLimit(2)
	domains := []string{"a.example", "b.example", "c.example", "d.example"}
	for i, d := range domains {
		q.Add(CrashBundle{Stage: StageCrawl, Domain: d, Rank: i, Panic: "boom"})
	}

	// Newest two bundle files survive; the oldest two are gone.
	for _, d := range domains[:2] {
		if _, err := os.Stat(filepath.Join(dir, d+".json")); !os.IsNotExist(err) {
			t.Errorf("%s.json should have been evicted (err=%v)", d, err)
		}
	}
	for _, d := range domains[2:] {
		if _, err := os.Stat(filepath.Join(dir, d+".json")); err != nil {
			t.Errorf("%s.json should survive the cap: %v", d, err)
		}
	}
	// In-memory accounting is complete regardless of what is on disk.
	if q.Len() != len(domains) {
		t.Errorf("Len() = %d, want %d", q.Len(), len(domains))
	}
	if sites := q.Sites(); len(sites) != len(domains) {
		t.Errorf("Sites() = %v, want all %d crashed domains", sites, len(domains))
	}

	// The manifest keeps the full history: four crash records plus one
	// eviction record per deleted bundle, in append order.
	var crashes, evictions []string
	for _, r := range readManifest(t, q.ManifestPath()) {
		switch r.Stage {
		case StageEvict:
			evictions = append(evictions, r.Domain)
		default:
			crashes = append(crashes, r.Domain)
		}
	}
	if len(crashes) != 4 {
		t.Errorf("manifest crash records = %v, want all 4 domains", crashes)
	}
	if len(evictions) != 2 || evictions[0] != "a.example" || evictions[1] != "b.example" {
		t.Errorf("manifest evictions = %v, want oldest-first [a.example b.example]", evictions)
	}
}

// TestQuarantineShardCapNamesDomains verifies eviction under a sharded
// quarantine strips the shard suffix when recording the domain.
func TestQuarantineShardCapNamesDomains(t *testing.T) {
	dir := t.TempDir()
	q, err := NewQuarantineShard(dir, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	q.SetLimit(1)
	q.Add(CrashBundle{Stage: StageDetect, Domain: "x.example"})
	q.Add(CrashBundle{Stage: StageDetect, Domain: "y.example"})
	var evicted []string
	for _, r := range readManifest(t, q.ManifestPath()) {
		if r.Stage == StageEvict {
			evicted = append(evicted, r.Domain)
		}
	}
	if len(evicted) != 1 || evicted[0] != "x.example" {
		t.Errorf("sharded eviction recorded %v, want [x.example]", evicted)
	}
}

// TestQuarantineUnlimitedKeepsEverything pins the default: limit 0
// never deletes.
func TestQuarantineUnlimitedKeepsEverything(t *testing.T) {
	dir := t.TempDir()
	q, err := NewQuarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"a.example", "b.example", "c.example"} {
		q.Add(CrashBundle{Stage: StageCrawl, Domain: d})
	}
	for _, r := range readManifest(t, q.ManifestPath()) {
		if r.Stage == StageEvict {
			t.Fatalf("unbounded quarantine evicted %s", r.Domain)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.example.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("found %d bundle files, want 3", len(entries))
	}
}
