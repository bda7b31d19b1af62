package webgen

import (
	"encoding/json"
	"strings"
	"testing"

	"piileak/internal/pii"
	"piileak/internal/site"
	"piileak/internal/tranco"
)

func universeFixture(t testing.TB, size int) (*Ecosystem, *Universe) {
	t.Helper()
	cfg := SmallConfig(19)
	cfg.UniverseSize = size
	eco, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eco, eco.Universe()
}

func siteJSON(t testing.TB, s *site.Site) []byte {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestUniverseHeadIsTheStudyCore: with UniverseSize zero the universe
// is exactly the materialized core — same length, same pointers — so
// the lazy default cannot perturb a single pre-universe output byte.
func TestUniverseHeadIsTheStudyCore(t *testing.T) {
	eco, u := universeFixture(t, 0)
	if u.Len() != len(eco.Sites) {
		t.Fatalf("default universe has %d sites, core has %d", u.Len(), len(eco.Sites))
	}
	for i := range eco.Sites {
		if u.At(i) != eco.Sites[i] {
			t.Fatalf("index %d: universe returns a different pointer than the core", i)
		}
	}
}

// TestUniverseAccessOrderIndependent is the tentpole purity pin:
// At(i) yields byte-identical sites across sequential, reversed,
// strided-subset and repeated access, and across independent Universe
// values over independently generated ecosystems — the property that
// makes any shard's view of the tail agree with any other's.
func TestUniverseAccessOrderIndependent(t *testing.T) {
	const size = 500
	eco, u := universeFixture(t, size)

	sequential := make([][]byte, size)
	for i := 0; i < size; i++ {
		sequential[i] = siteJSON(t, u.At(i))
	}
	for i := size - 1; i >= 0; i-- {
		if got := siteJSON(t, u.At(i)); string(got) != string(sequential[i]) {
			t.Fatalf("index %d: reversed access diverges from sequential", i)
		}
	}
	// A sparse subset in shard-interleave order, against a second
	// Universe value from a separately generated ecosystem.
	eco2, err := Generate(func() Config { c := SmallConfig(19); c.UniverseSize = size; return c }())
	if err != nil {
		t.Fatal(err)
	}
	u2 := eco2.Universe()
	for i := 3; i < size; i += 7 {
		if got := siteJSON(t, u2.At(i)); string(got) != string(sequential[i]) {
			t.Fatalf("index %d: subset access on a fresh ecosystem diverges", i)
		}
	}
	// Repeated materialization of one tail site is equal bytes but
	// never the same pointer — At caches nothing.
	tail := len(eco.Sites) + 1
	a, b := u.At(tail), u.At(tail)
	if a == b {
		t.Error("tail At returned the same pointer twice — it must not cache")
	}
	if string(siteJSON(t, a)) != string(siteJSON(t, b)) {
		t.Error("tail At returned different bytes for the same index")
	}
}

// TestUniverseTailShape pins the tail population's study-neutrality:
// tail domains are unique, rank-marked and disjoint from the core;
// non-shopping tail sites carry no auth flow; no tail site sends mail
// or collects PII beyond the derived core attributes.
func TestUniverseTailShape(t *testing.T) {
	const size = 800
	eco, u := universeFixture(t, size)
	head := len(eco.Sites)
	coreDomains := map[string]bool{}
	for _, s := range eco.Sites {
		coreDomains[s.Domain] = true
	}
	seen := map[string]bool{}
	shopping := 0
	for i := head; i < size; i++ {
		s := u.At(i)
		if wantRank := eco.Config.TopN + (i - head) + 1; s.Rank != wantRank {
			t.Fatalf("tail index %d has rank %d, want %d", i, s.Rank, wantRank)
		}
		if !strings.Contains(s.Domain, "-r") {
			t.Fatalf("tail domain %s lacks the rank infix", s.Domain)
		}
		if coreDomains[s.Domain] {
			t.Fatalf("tail domain %s collides with the study core", s.Domain)
		}
		if seen[s.Domain] {
			t.Fatalf("tail domain %s repeats", s.Domain)
		}
		seen[s.Domain] = true
		if s.MarketingMails != 0 || s.SpamMails != 0 {
			t.Fatalf("tail site %s sends mail — the tail must not move mailbox counts", s.Domain)
		}
		if s.Rank%tranco.TailShoppingModulus == 0 {
			shopping++
			if s.Obstacle != site.ObstacleNone {
				t.Fatalf("tail shopping site %s has obstacle %v", s.Domain, s.Obstacle)
			}
		} else if s.Obstacle != site.ObstacleNoAuth {
			t.Fatalf("tail non-shopping site %s is crawl-deep (obstacle %v)", s.Domain, s.Obstacle)
		}
	}
	if shopping == 0 {
		t.Error("no shopping sites in the tail — TailShoppingModulus never hit")
	}
}

// TestUniverseSizeValidation: a zero Config.UniverseSize is the study
// core alone, a larger one is the universe's length, and a negative or
// too-small one is rejected at Generate time.
func TestUniverseSizeValidation(t *testing.T) {
	eco, u := universeFixture(t, 0)
	if u.Len() != len(eco.Sites) {
		t.Errorf("UniverseSize 0 has %d sites, want the %d-site core", u.Len(), len(eco.Sites))
	}
	if _, grown := universeFixture(t, 10_000); grown.Len() != 10_000 {
		t.Errorf("UniverseSize 10000 has %d sites", grown.Len())
	}

	bad := SmallConfig(19)
	bad.UniverseSize = -1
	if _, err := Generate(bad); err == nil {
		t.Error("Generate accepted a negative UniverseSize")
	}
	bad.UniverseSize = 10
	if _, err := Generate(bad); err == nil {
		t.Error("Generate accepted a UniverseSize below the study core")
	}
}

// TestUniverseAtPanicsOutOfRange: the source contract makes an
// out-of-range index a programming error, not a silent nil.
func TestUniverseAtPanicsOutOfRange(t *testing.T) {
	_, u := universeFixture(t, 0)
	for _, i := range []int{-1, u.Len()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			u.At(i)
		}()
	}
}

// TestUniverseTailAtAllocs bounds the allocations of deriving one tail
// site at the 2 it takes: the site and its domain (one allocation of
// its exact length). The two per-rank PCG streams of its name and its
// attributes are held by value and drawn through tranco.IntN, so they
// allocate nothing. Its tags and form fields are slices every tail site
// shares; each is full (len == cap), so appending to one site's copies
// and leaves every other site's as derived.
func TestUniverseTailAtAllocs(t *testing.T) {
	eco, u := universeFixture(t, 200_000)
	head := len(eco.Sites)
	shopping := 0
	for i := head; i < u.Len(); i += 1009 {
		s := u.At(i)
		if s.Obstacle == site.ObstacleNone {
			shopping++
		}
		if len(s.Tags) != cap(s.Tags) || len(s.Collected) != cap(s.Collected) {
			t.Fatalf("tail site %s: tags %d/%d, collected %d/%d (len/cap): an append would write into a shared slice",
				s.Domain, len(s.Tags), cap(s.Tags), len(s.Collected), cap(s.Collected))
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { u.At(i) }); allocs > 2 {
			t.Errorf("At(%d) (%s): %.0f allocs, bound 2", i, s.Domain, allocs)
		}
	}
	if shopping == 0 {
		t.Error("the sample holds no shopping tail site")
	}
	// Every At(i) of a site with tags shares its slices with the others.
	i := head
	for len(u.At(i).Tags) == 0 {
		i++
	}
	want := string(siteJSON(t, u.At(i)))
	s := u.At(i)
	s.Tags = append(s.Tags, benignFontTag())
	s.Collected = append(s.Collected, pii.TypeJob)
	if got := string(siteJSON(t, u.At(i))); got != want {
		t.Errorf("appending to a tail site's slices changed the site derived again:\n%s\n%s", got, want)
	}
}

// BenchmarkUniverse measures lazy tail materialization: sites/sec and
// allocations per derived site. make bench records it as
// BENCH_universe.json.
func BenchmarkUniverse(b *testing.B) {
	eco, err := Generate(func() Config { c := SmallConfig(19); c.UniverseSize = 1_000_000; return c }())
	if err != nil {
		b.Fatal(err)
	}
	u := eco.Universe()
	head := len(eco.Sites)
	span := u.Len() - head
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := u.At(head + i%span)
		if s.Domain == "" {
			b.Fatal("empty tail site")
		}
	}
}
