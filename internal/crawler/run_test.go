package crawler

import (
	"bytes"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

func runDatasetJSON(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunLazySourceMatchesEagerSites: the same population supplied
// lazily (the ecosystem's universe) and eagerly (the materialized core
// slice) crawls to byte-identical datasets, serial and parallel — and
// an empty slice crawls zero sites, never the whole universe.
func TestRunLazySourceMatchesEagerSites(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	profile := browser.Firefox88()

	want := runDatasetJSON(t, mustRun(t, eco, profile, Options{Source: site.Slice(eco.Sites)}))
	if got := runDatasetJSON(t, mustRun(t, eco, profile, Options{})); !bytes.Equal(got, want) {
		t.Error("default (universe) crawl diverges from the eager slice")
	}
	if got := runDatasetJSON(t, mustRun(t, eco, profile, Options{Source: eco.Universe()})); !bytes.Equal(got, want) {
		t.Error("lazy serial crawl diverges from the eager slice")
	}
	if got := runDatasetJSON(t, mustRun(t, eco, profile, Options{Source: eco.Universe(), Workers: 4})); !bytes.Equal(got, want) {
		t.Error("lazy parallel crawl diverges from the eager slice")
	}
	if ds := mustRun(t, eco, profile, Options{Source: site.Slice(nil)}); len(ds.Crawls) != 0 {
		t.Errorf("empty source crawled %d sites, want 0", len(ds.Crawls))
	}
}
