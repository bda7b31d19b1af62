package site

// Source supplies a ranked site population by index without promising
// anything about how the sites are stored. Len is the population size;
// At(i) returns site i (0-based, rank order). At must be pure: the same
// i yields an identical site every call, regardless of access order,
// subsetting, or which process asks — that property is what lets a
// sharded crawl over a lazily generated universe stay byte-identical to
// an unsharded one. At may materialize a fresh value per call, so
// callers must not rely on pointer identity across calls, and a Source
// must be safe for concurrent At calls.
type Source interface {
	Len() int
	At(i int) *Site
}

// Slice adapts a materialized site slice to a Source: a -only subset,
// the §7.1 sender re-crawl, a test's hand-picked sites.
type Slice []*Site

// Len returns the slice length.
func (s Slice) Len() int { return len(s) }

// At returns site i.
func (s Slice) At(i int) *Site { return s[i] }
