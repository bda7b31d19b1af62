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
	// rules maps a rule's domain form (without "*." or "!") to every
	// kind of rule the list has under that name.
	rules map[string]ruleKind
}

// ruleKind is a set of rule kinds: "ck" and "*.ck" are two rules with
// one name, and neither may overwrite the other.
type ruleKind uint8

const (
	ruleNormal ruleKind = 1 << iota
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
			l.rules[line[1:]] |= ruleException
		case strings.HasPrefix(line, "*."):
			l.rules[line[2:]] |= ruleWildcard
		default:
			if strings.ContainsAny(line, " \t") {
				return nil, fmt.Errorf("psl: malformed rule on line %d: %q", lineNo+1, line)
			}
			l.rules[line] |= ruleNormal
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

// publicSuffix is PublicSuffix of an already normalized domain. It
// walks the suffixes domain[i:] that start at a label, longest first,
// so "longest rule wins"; the result is always a substring of domain,
// and nothing is allocated.
func (l *List) publicSuffix(domain string) string {
	if domain == "" || domain[0] == '.' || domain[len(domain)-1] == '.' || strings.Contains(domain, "..") {
		return "" // empty label: not a valid host
	}
	suffix, kinds := domain, l.rules[domain]
	for {
		dot := strings.IndexByte(suffix, '.')
		switch {
		case kinds&ruleException != 0:
			// An exception beats a normal rule of the same name, and
			// its own suffix is one label shorter.
			if dot < 0 {
				return ""
			}
			return suffix[dot+1:]
		case kinds != 0:
			// A normal rule, or a wildcard matched as its own name:
			// "*.ck" also implies "anything.ck" is a suffix; matching
			// the bare name means the rule is the suffix of a longer
			// domain handled below. Treat a bare match as normal.
			return suffix
		case dot < 0:
			return suffix // unmatched: the last label
		}
		// Wildcard: "*.<suffix-without-first-label>". The parent's
		// lookup is also the next, shorter suffix's.
		parent := suffix[dot+1:]
		kinds = l.rules[parent]
		if kinds&ruleWildcard != 0 {
			return suffix
		}
		suffix = parent
	}
}

// ETLDPlusOne returns the registrable domain (public suffix plus one
// label), a substring of the normalized domain. It returns an error when
// the domain is itself a public suffix, empty, or has an empty label.
func (l *List) ETLDPlusOne(domain string) (string, error) {
	domain = Normalize(domain)
	suffix := l.publicSuffix(domain)
	if suffix == "" || suffix == domain {
		return "", fmt.Errorf("psl: %q has no registrable domain", domain)
	}
	rest := domain[:len(domain)-len(suffix)-1]
	return domain[strings.LastIndexByte(rest, '.')+1:], nil
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
