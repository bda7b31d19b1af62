// Package core holds the paper's leak model and its aggregate analyses
// (§4.2): leakage by channel, by encoding/hashing, by PII type, and the
// receiver popularity ranking of Figure 2.
//
// Detection itself (§4.1) is internal/detect's Engine, which turns
// captured HTTP records into Leaks. This package defines what a leak is,
// how a request's receiver is classified (ReceiverOf: the public suffix
// list plus CNAME uncloaking), and how leaks fold into the study's
// aggregates, one at a time (Accumulator) or in a batch (Analyze).
package core

import (
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/psl"
)

// Leak is one detected PII transfer to a third party.
type Leak struct {
	// Site is the first-party (sender) registrable domain.
	Site string `json:"site"`
	// Receiver is the third party's registrable domain, after CNAME
	// uncloaking.
	Receiver string `json:"receiver"`
	// Cloaked marks receivers reached through a first-party CNAME.
	Cloaked bool `json:"cloaked,omitempty"`
	// Method is the leak channel (referer, uri, payload, cookie).
	Method httpmodel.SurfaceKind `json:"method"`
	// Param is the parameter or cookie name carrying the token, when
	// the match occurred on a named surface ("" otherwise). It feeds
	// the §5.2 trackid mining.
	Param string `json:"param,omitempty"`
	// Token is the matched candidate token (value, PII field, chain).
	Token pii.Token `json:"token"`
	// RequestURL, Phase and Seq locate the leak in the crawl.
	RequestURL string          `json:"request_url"`
	Phase      httpmodel.Phase `json:"phase"`
	Seq        int             `json:"seq"`
}

// EncodingLabel returns the leak's Table 1b vocabulary label.
func (l *Leak) EncodingLabel() string { return pii.ChainLabel(l.Token.Chain) }

// ReceiverOf classifies a request host against the visited site,
// returning the receiving third party ("" when first-party). A host
// outside the site's registrable domain is a third party under its own
// eTLD+1; a nominally first-party host is a third party only when the
// CNAME classifier (nil disables it) uncloaks it to a tracker.
func ReceiverOf(list *psl.List, cname *dnssim.Classifier, siteDomain, host string) (receiver string, cloaked bool) {
	if host == "" {
		return "", false
	}
	if list.IsThirdParty(siteDomain, host) {
		e, err := list.ETLDPlusOne(host)
		if err != nil {
			e = psl.Normalize(host)
		}
		return e, false
	}
	// Nominally first-party: check for CNAME cloaking.
	if cname != nil {
		if tracker, ok := cname.Uncloak(host); ok {
			return tracker, true
		}
	}
	return "", false
}
