// Package tracking implements §5's persistent-tracking analysis: mining
// PII identifier parameters (trackids) from detected leaks, checking the
// cross-site cue (the same ID parameter fed by more than one sender) and
// the persistence cue (the ID re-appears on first-party subpages), and
// classifying third-party receivers as PII-leakage-based tracking
// providers (Table 2).
package tracking

import (
	"sort"
	"strings"

	"piileak/internal/core"
	"piileak/internal/httpmodel"
)

// Row is one behaviour row of a provider in Table 2: the senders using
// one encoding form, with the methods and identifier parameters seen.
type Row struct {
	Senders  int
	Methods  []string // e.g. ["URI", "Payload"]
	Encoding string   // Table 1b vocabulary
	Params   []string // identifier parameter names
}

// Provider is one classified receiver.
type Provider struct {
	// Receiver is the registrable domain (after uncloaking).
	Receiver string
	// Cloaked marks CNAME-cloaked deployments (reported with the
	// paper's "_cname" suffix).
	Cloaked bool
	// Senders is the count of distinct senders feeding identifier
	// parameters.
	Senders int
	// MultiSenderID holds §5.2's cross-site cue: some identifier
	// parameter receives the same PII-derived ID from ≥ 2 senders.
	MultiSenderID bool
	// Persistent holds §5.2's storage cue: the identifier also appears
	// on sender subpages.
	Persistent bool
	// Rows is the Table 2 breakdown by encoding form.
	Rows []Row
}

// IsTracker reports the §5.2 classification: a tracking provider shows
// both the cross-site and the persistence cue.
func (p *Provider) IsTracker() bool { return p.MultiSenderID && p.Persistent }

// Display renders the receiver name, marking cloaked deployments the way
// the paper does ("adobe_cname").
func (p *Provider) Display() string {
	if !p.Cloaked {
		return p.Receiver
	}
	base := p.Receiver
	if i := strings.IndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	if base == "omtrdc" {
		base = "adobe"
	}
	return base + "_cname"
}

// Classification is the full §5.2 census.
type Classification struct {
	// Providers holds every receiver, most senders first.
	Providers []Provider
	// Trackers is the Table 2 subset (cross-site + persistent).
	Trackers []Provider
	// MultiSenderID counts receivers with the cross-site cue (the
	// paper's 34).
	MultiSenderID int
	// MultiSender counts receivers fed by ≥ 2 senders regardless of
	// parameter consistency.
	MultiSender int
	// SingleSender counts receivers seen with exactly one sender (the
	// paper's 58 possibly-missed trackers).
	SingleSender int
}

// identifiable reports whether a leak can serve as a stored identifier:
// it rode in a named parameter, body field or cookie.
func identifiable(l *core.Leak) bool {
	return l.Param != "" && l.Method != httpmodel.SurfaceReferer
}

// Classify runs the §5.2 analysis over detected leaks in one batch
// pass: it feeds a fresh incremental Index and materializes the census.
// The cross-site cue lives in the Index: the receiver gets the *same
// ID* — the same PII-derived token value — from at least two senders.
// The persona is one user, so equal encodings yield equal IDs across
// sites; receivers whose senders use different encodings (or no
// identifier parameter at all) fail the cue.
func Classify(leaks []core.Leak) *Classification {
	ix := NewIndex()
	for i := range leaks {
		ix.Add(&leaks[i])
	}
	return ix.Classification()
}

func methodName(m httpmodel.SurfaceKind) string {
	switch m {
	case httpmodel.SurfaceURI:
		return "URI"
	case httpmodel.SurfaceBody:
		return "Payload"
	case httpmodel.SurfaceCookie:
		return "Cookie"
	case httpmodel.SurfaceReferer:
		return "Referer"
	}
	return string(m)
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
