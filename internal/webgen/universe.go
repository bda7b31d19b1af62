package webgen

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/site"
	"piileak/internal/tranco"
)

// universeSalt keys the per-rank attribute streams of lazily derived
// tail sites. It is distinct from tranco's name stream, so a site's
// domain and its attributes draw from independent sequences.
const universeSalt = 0x554e4956 // "UNIV"

// Universe is the ecosystem's full ranked site population as a lazy
// site.Source: the study core (Ecosystem.Sites, everything Generate
// materializes) occupies the first indexes exactly as generated, and
// every index past it is a background long-tail site derived on demand
// from (Config.Seed, rank) via an independent PCG stream. At never
// caches: tail sites are materialized per call and byte-identical
// regardless of access order, subsetting, or which shard asks, which is
// what keeps a sharded crawl over the tail byte-identical to an
// unsharded one with no O(universe) memory anywhere.
type Universe struct {
	eco  *Ecosystem
	size int
}

// Universe returns the ecosystem's site population at the configured
// scale: Config.UniverseSize when set, otherwise exactly the study
// core. With UniverseSize zero the source is the core alone, so every
// output stays byte-identical to the eager []*site.Site path.
func (e *Ecosystem) Universe() *Universe {
	size := e.Config.UniverseSize
	if size < len(e.Sites) {
		size = len(e.Sites)
	}
	return &Universe{eco: e, size: size}
}

// Len returns the universe size.
func (u *Universe) Len() int { return u.size }

// At returns site i: a pointer into the study core for i < len(Sites),
// a freshly derived tail site otherwise. Tail derivation is pure —
// repeated calls return equal values, never the same pointer — and safe
// for concurrent use.
func (u *Universe) At(i int) *site.Site {
	if i < 0 || i >= u.size {
		panic(fmt.Sprintf("webgen: universe index %d out of range [0, %d)", i, u.size))
	}
	if i < len(u.eco.Sites) {
		return u.eco.Sites[i]
	}
	return tailSite(&u.eco.Config, len(u.eco.Sites), i)
}

// tailSite derives background site i (global universe index) for a
// config whose study core holds head sites. Tail ranks continue past
// the generated top list: universe index head+j is rank TopN+j+1.
//
// The tail must add crawlable surface without touching the calibrated
// study numbers, so tail sites never leak and never mail the persona:
// non-shopping sites (the vast majority) have no auth flow — §3.2's
// selection would discard them — and carry at most one benign tag;
// shopping sites complete the full flow with benign tags plus an
// occasional actionless tracker pixel (embedding a tracker is not
// leaking), and send no marketing mail. A tail site costs two
// allocations, the Site and its domain: both PCG streams are held by
// value and drawn through tranco.IntN.
func tailSite(cfg *Config, head, i int) *site.Site {
	rank := cfg.TopN + (i - head) + 1
	entry := tranco.TailEntry(cfg.Seed, rank)
	var rng rand.PCG
	rng.Seed(cfg.Seed, universeSalt^uint64(rank))
	s := &site.Site{
		Domain:      entry.Domain,
		Rank:        entry.Rank,
		Collected:   tailCollected[i%4],
		FieldNaming: namingFor(i),
		Policy:      site.PolicyNotSpecific,
	}
	if entry.Category != tranco.CategoryShopping {
		s.Obstacle = site.ObstacleNoAuth
		if tranco.IntN(&rng, 4) == 0 {
			s.Tags = tailTags[:1:1]
		}
		return s
	}
	s.Tags = tailTags[:2:2]
	if tranco.IntN(&rng, 3) == 0 {
		s.Tags = tailTags[:3:3]
	}
	return s
}

// Every tail site shares its tags and form fields, read-only, from
// these: a prefix of tailTags, and collectedFor's fields by index. Each
// slice a site holds has len == cap, so an append to it copies instead
// of writing into another site's.
var (
	tailTags      = []site.Tag{benignCDNTag(), benignFontTag(), facebookPixelTag()}
	tailCollected = [4][]pii.Type{
		slices.Clip(collectedFor(0)), slices.Clip(collectedFor(1)),
		slices.Clip(collectedFor(2)), slices.Clip(collectedFor(3)),
	}
)

// The benign third parties every crawlable site embeds, shared between
// the eager core builder and the lazy tail so the two populations load
// the same background resources.

func benignCDNTag() site.Tag {
	return site.Tag{Receiver: "jscdn-static.net", Host: "cdn.jscdn-static.net", Path: "/lib/app.js", Type: httpmodel.TypeScript, OnSubpages: true}.WithURL()
}

func benignFontTag() site.Tag {
	return site.Tag{Receiver: "webfonts-host.org", Host: "fonts.webfonts-host.org", Path: "/css/family.css", Type: httpmodel.TypeStylesheet, OnSubpages: true}.WithURL()
}

func facebookPixelTag() site.Tag {
	return site.Tag{
		Receiver: "facebook.com", Host: "www.facebook.com",
		Path: "/en_US/fbevents.js", Type: httpmodel.TypeScript, OnSubpages: true,
	}.WithURL()
}
