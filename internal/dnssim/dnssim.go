// Package dnssim simulates the DNS view the paper needs to uncover CNAME
// cloaking (§4.1, footnote 3): a zone store with CNAME records, a
// chain-following resolver, and a cloaking classifier that matches
// resolved chains against a blocklist of known cloaking tracker domains
// (the AdGuard/NextDNS-style lists of refs [12, 14, 21]).
package dnssim

import (
	"fmt"
	"sort"
	"strings"

	"piileak/internal/psl"
)

// Zone is a CNAME record store. The zero value is empty; Add records and
// resolve chains. Zone is not safe for concurrent mutation.
type Zone struct {
	cnames map[string]string
}

// NewZone returns an empty zone.
func NewZone() *Zone { return &Zone{cnames: make(map[string]string)} }

// AddCNAME maps host to target. Adding a host twice overwrites.
func (z *Zone) AddCNAME(host, target string) {
	z.cnames[psl.Normalize(host)] = psl.Normalize(target)
}

// Resolve follows the CNAME chain from host, returning the chain targets
// in order. It returns an error on chains longer than 16 hops (loops).
func (z *Zone) Resolve(host string) ([]string, error) {
	var chain []string
	cur := psl.Normalize(host)
	for i := 0; i < 16; i++ {
		target, ok := z.cnames[cur]
		if !ok {
			return chain, nil
		}
		chain = append(chain, target)
		cur = target
	}
	return nil, fmt.Errorf("dnssim: CNAME chain from %q exceeds 16 hops (loop?)", host)
}

// Hosts returns every host with a CNAME record, sorted.
func (z *Zone) Hosts() []string {
	hosts := make([]string, 0, len(z.cnames))
	for h := range z.cnames {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// LookupHook lets a fault injector veto a resolution: it sees the host
// and the 1-based count of lookups this resolver has made for it, and
// returns the injected error (nil = resolution proceeds). faultsim's
// Injector.DNSHook produces one.
type LookupHook func(host string, attempt int) error

// Resolver answers lookups against a zone with optional injected
// faults. In the synthetic web every host resolves, so a Resolver
// without a hook never fails; with one, hosts can be made transiently
// unresolvable — the DNS leg of the crawl's fault model. The per-host
// attempt counter is what lets flaky-then-healthy hosts recover under
// retry. Not safe for concurrent use; scope one per crawl.
type Resolver struct {
	zone     *Zone
	hook     LookupHook
	attempts map[string]int
}

// NewResolver wires a resolver over a zone; hook may be nil.
func NewResolver(zone *Zone, hook LookupHook) *Resolver {
	if zone == nil {
		zone = NewZone()
	}
	return &Resolver{zone: zone, hook: hook, attempts: map[string]int{}}
}

// Lookup resolves host, returning its CNAME chain (empty for apex
// hosts) or the injected resolution error.
func (r *Resolver) Lookup(host string) ([]string, error) {
	host = psl.Normalize(host)
	r.attempts[host]++
	if r.hook != nil {
		if err := r.hook(host, r.attempts[host]); err != nil {
			return nil, err
		}
	}
	return r.zone.Resolve(host)
}

// CloakingList is a blocklist of tracker registrable domains known to
// offer CNAME cloaking.
type CloakingList struct {
	domains map[string]bool
}

// NewCloakingList builds a list from tracker registrable domains.
func NewCloakingList(domains ...string) *CloakingList {
	l := &CloakingList{domains: make(map[string]bool, len(domains))}
	for _, d := range domains {
		l.domains[psl.Normalize(d)] = true
	}
	return l
}

// DefaultCloakingList mirrors the well-known cloaking providers from the
// public CNAME-cloaking blocklists, including the Adobe Experience Cloud
// domains the paper's five cookie-leak cases route through.
func DefaultCloakingList() *CloakingList {
	return NewCloakingList(
		"omtrdc.net", "2o7.net", "adobedc.net", // Adobe
		"eulerian.net", "at-o.net", "dnsdelegation.io",
		"tagcommander.com", "wizaly.com", "affex.org",
		"intentmedia.net", "webtrekk.net", "oghub.io",
		"keyade.com", "adclear.net", "actonservice.com",
	)
}

// Contains reports whether a registrable domain is on the list.
func (l *CloakingList) Contains(domain string) bool {
	return l.domains[psl.Normalize(domain)]
}

// Classifier combines a zone, a cloaking list and a suffix list to decide
// whether a first-party host is a cloaked tracker.
type Classifier struct {
	Zone *Zone
	List *CloakingList
	PSL  *psl.List
}

// NewClassifier wires a classifier with the default cloaking list and
// suffix list.
func NewClassifier(zone *Zone) *Classifier {
	return &Classifier{Zone: zone, List: DefaultCloakingList(), PSL: psl.Default()}
}

// Uncloak resolves host's CNAME chain; if any hop's registrable domain is
// a known cloaking tracker, it returns that tracker domain and true.
// Hosts without cloaking return ("", false).
func (c *Classifier) Uncloak(host string) (tracker string, cloaked bool) {
	chain, err := c.Zone.Resolve(host)
	if err != nil {
		return "", false
	}
	for _, hop := range chain {
		e, err := c.PSL.ETLDPlusOne(hop)
		if err != nil {
			continue
		}
		if c.List.Contains(e) {
			return e, true
		}
	}
	return "", false
}

// EffectiveParty returns the registrable domain a request to host really
// talks to: the cloaking tracker when host is cloaked, the host's own
// registrable domain otherwise.
func (c *Classifier) EffectiveParty(host string) string {
	if tracker, ok := c.Uncloak(host); ok {
		return tracker
	}
	e, err := c.PSL.ETLDPlusOne(host)
	if err != nil {
		return psl.Normalize(host)
	}
	return e
}

// String renders the cloaking list for documentation output.
func (l *CloakingList) String() string {
	var ds []string
	for d := range l.domains {
		ds = append(ds, d)
	}
	sort.Strings(ds)
	return strings.Join(ds, ", ")
}
