package psl

import (
	"fmt"
	"strings"
)

// oraclePublicSuffix is the label-splitting walk List.publicSuffix
// replaced, kept as the differential fuzzer's reference: it splits the
// already normalized domain with strings.Split and joins every
// candidate suffix back together. It reads one rule kind per name, as
// the parser once stored them, so it is a reference only for lists
// where no name carries two kinds of rule.
func oraclePublicSuffix(l *List, domain string) string {
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
				// A bare match of a wildcard's name is a normal match.
				return suffix
			}
		}
		// Wildcard: "*.<suffix-without-first-label>".
		if i+1 <= len(labels)-1 {
			parent := strings.Join(labels[i+1:], ".")
			if kind, ok := l.rules[parent]; ok && kind == ruleWildcard {
				return suffix
			}
		}
	}
	return labels[len(labels)-1]
}

// oracleETLDPlusOne is ETLDPlusOne over oraclePublicSuffix, rebuilding
// the registrable domain by splitting and concatenating.
func oracleETLDPlusOne(l *List, domain string) (string, error) {
	domain = Normalize(domain)
	suffix := oraclePublicSuffix(l, domain)
	if suffix == "" || suffix == domain || domain == "" {
		return "", fmt.Errorf("psl: %q has no registrable domain", domain)
	}
	rest := strings.TrimSuffix(domain, "."+suffix)
	labels := strings.Split(rest, ".")
	return labels[len(labels)-1] + "." + suffix, nil
}

// oracleSameSite is SameSite over oracleETLDPlusOne.
func oracleSameSite(l *List, a, b string) bool {
	ea, errA := oracleETLDPlusOne(l, a)
	eb, errB := oracleETLDPlusOne(l, b)
	return errA == nil && errB == nil && ea == eb
}
