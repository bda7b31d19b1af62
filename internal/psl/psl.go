// Package psl implements the Public Suffix List algorithm the paper uses
// to split first-party from third-party resources (§4.1): rules,
// wildcard rules (*.ck) and exception rules (!www.ck), public-suffix and
// eTLD+1 extraction, and site-equality ("same registrable domain")
// classification.
//
// The embedded default list is a curated subset of the real PSL's ICANN
// section covering every suffix the synthetic ecosystem uses. Custom
// lists can be parsed from the standard PSL text format for tests and
// for users with their own data.
package psl

import (
	"fmt"
	"strings"
)

// List is a parsed public suffix list. The zero value matches nothing;
// use Parse or Default.
type List struct {
	// rules maps a rule's domain form (without "*." or "!") to its kind.
	rules map[string]ruleKind
}

type ruleKind uint8

const (
	ruleNormal ruleKind = iota
	ruleWildcard
	ruleException
)

// Parse reads the standard PSL text format: one rule per line,
// "//" comments, blank lines ignored. Both the ICANN and private sections
// are treated alike, which matches how tracker-blocking tools use the
// list.
func Parse(text string) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "!"):
			l.rules[line[1:]] = ruleException
		case strings.HasPrefix(line, "*."):
			l.rules[line[2:]] = ruleWildcard
		default:
			if strings.ContainsAny(line, " \t") {
				return nil, fmt.Errorf("psl: malformed rule on line %d: %q", lineNo+1, line)
			}
			l.rules[line] = ruleNormal
		}
	}
	return l, nil
}

// MustParse is Parse for static rule text; it panics on error.
func MustParse(text string) *List {
	l, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return l
}

// PublicSuffix returns the public suffix of domain per the PSL algorithm:
// the longest matching rule wins, wildcard rules match one extra leading
// label, exception rules override wildcards, and an unmatched domain
// falls back to its last label.
func (l *List) PublicSuffix(domain string) string {
	return l.publicSuffix(Normalize(domain))
}

// publicSuffix is PublicSuffix of an already normalized domain.
func (l *List) publicSuffix(domain string) string {
	if domain == "" {
		return ""
	}
	labels := strings.Split(domain, ".")
	for _, l := range labels {
		if l == "" {
			return "" // empty label: not a valid host
		}
	}
	// Walk suffixes from longest to shortest so "longest rule wins".
	for i := 0; i < len(labels); i++ {
		suffix := strings.Join(labels[i:], ".")
		if kind, ok := l.rules[suffix]; ok {
			switch kind {
			case ruleException:
				// The exception's own suffix is one label shorter.
				return strings.Join(labels[i+1:], ".")
			case ruleNormal:
				return suffix
			case ruleWildcard:
				// Wildcard matched as its own name: "*.ck" also
				// implies "anything.ck" is a suffix; matching the
				// bare name means the rule is the suffix of a longer
				// domain handled below. Treat bare match as normal.
				return suffix
			}
		}
		// Wildcard: "*.<suffix-without-first-label>".
		if i+1 <= len(labels)-1 {
			parent := strings.Join(labels[i+1:], ".")
			if kind, ok := l.rules[parent]; ok && kind == ruleWildcard {
				// Exception rules are checked first above, so this
				// label is covered by the wildcard.
				return suffix
			}
		}
	}
	return labels[len(labels)-1]
}

// ETLDPlusOne returns the registrable domain (public suffix plus one
// label). It returns an error when the domain is itself a public suffix,
// empty, or has an empty label.
func (l *List) ETLDPlusOne(domain string) (string, error) {
	domain = Normalize(domain)
	suffix := l.publicSuffix(domain)
	if suffix == "" || suffix == domain || domain == "" {
		return "", fmt.Errorf("psl: %q has no registrable domain", domain)
	}
	rest := strings.TrimSuffix(domain, "."+suffix)
	labels := strings.Split(rest, ".")
	return labels[len(labels)-1] + "." + suffix, nil
}

// SameSite reports whether two hosts share a registrable domain — the
// paper's first-party test. Hosts that are bare public suffixes are never
// same-site with anything.
func (l *List) SameSite(a, b string) bool {
	ea, errA := l.ETLDPlusOne(a)
	eb, errB := l.ETLDPlusOne(b)
	return errA == nil && errB == nil && ea == eb
}

// IsThirdParty reports whether requestHost is a third-party resource for
// a page on siteHost (§4.1's first split, before CNAME uncloaking).
func (l *List) IsThirdParty(siteHost, requestHost string) bool {
	return !l.SameSite(siteHost, requestHost)
}

// Normalize lower-cases a host and strips one trailing dot and a port.
// A host ending in ".." keeps an empty label, which PublicSuffix and
// ETLDPlusOne reject.
func Normalize(host string) string {
	host = strings.ToLower(strings.TrimSpace(host))
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host[i+1:], ".") {
		// A colon followed by digits is a port; IPv6 literals are not
		// used in this simulator.
		allDigits := i+1 < len(host)
		for _, r := range host[i+1:] {
			if r < '0' || r > '9' {
				allDigits = false
				break
			}
		}
		if allDigits {
			host = host[:i]
		}
	}
	// Stripping the trailing dot can expose trailing whitespace; trim
	// again.
	return strings.TrimSpace(strings.TrimSuffix(host, "."))
}

// defaultPSL is the embedded ICANN-section rule set. The paper's party
// classification operates at this granularity (it reports herokuapp.com —
// a private-section suffix — as a single receiver domain), so the list
// has no private section.
const defaultPSL = `
// ---- ICANN section (subset) ----
com
net
org
edu
gov
info
biz
io
co
ai
jp
co.jp
ne.jp
or.jp
ac.jp
uk
co.uk
org.uk
ac.uk
gov.uk
au
com.au
net.au
org.au
br
com.br
net.br
in
co.in
net.in
de
fr
it
nl
ru
cn
com.cn
net.cn
kr
co.kr
tv
me
cc
app
dev
shop
store
online
site
xyz
club
// Wildcard + exception examples, kept for PSL-algorithm fidelity.
*.ck
!www.ck
*.bd
`

var defaultList = MustParse(defaultPSL)

// Default returns the embedded ICANN-section list.
func Default() *List { return defaultList }

// PublicSuffix applies the embedded list.
func PublicSuffix(domain string) string { return defaultList.PublicSuffix(domain) }

// ETLDPlusOne applies the embedded list.
func ETLDPlusOne(domain string) (string, error) { return defaultList.ETLDPlusOne(domain) }

// IsThirdParty applies the embedded list.
func IsThirdParty(siteHost, requestHost string) bool {
	return defaultList.IsThirdParty(siteHost, requestHost)
}
