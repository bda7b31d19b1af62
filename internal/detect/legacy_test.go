package detect

import (
	"sort"

	"piileak/internal/core"
	"piileak/internal/dnssim"
	"piileak/internal/encode"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/psl"
)

// Legacy is the original single-phase §4.1 detector, kept only as the
// differential oracle the Scanner is diffed against. It has none of the
// Scanner's machinery — no prefilter, no receiver memo, no scratch
// reuse: every third-party request gets every surface built and scanned
// with the full automaton. Living in a _test.go file keeps it out of
// every binary; the external detect_test package reaches it as
// detect.Legacy.
type Legacy struct {
	Candidates *pii.CandidateSet
	PSL        *psl.List
	CNAME      *dnssim.Classifier
}

// LegacyFor builds the oracle over an engine's candidate set and CNAME
// classifier, so any divergence from the engine's scanners is the scan
// path's fault, not a compile difference.
func LegacyFor(e *Engine) *Legacy {
	return &Legacy{Candidates: e.Candidates(), PSL: psl.Default(), CNAME: e.CNAME()}
}

// DetectRecord returns the leaks in one captured request. Matches are
// deduplicated per (method, token); named surfaces win the parameter
// attribution over whole-region surfaces.
func (d *Legacy) DetectRecord(siteDomain string, rec *httpmodel.Record) []core.Leak {
	receiver, cloaked := core.ReceiverOf(d.PSL, d.CNAME, siteDomain, rec.Request.Host())
	if receiver == "" {
		return nil
	}
	surfaces := httpmodel.Surfaces(&rec.Request)

	type key struct {
		method httpmodel.SurfaceKind
		value  string
	}
	found := map[key]*core.Leak{}
	var order []key

	scan := func(named bool) {
		for _, s := range surfaces {
			if (s.Name != "") != named {
				continue
			}
			for _, tok := range d.Candidates.FindIn(s.Data) {
				k := key{s.Kind, tok.Value}
				if l, ok := found[k]; ok {
					if l.Param == "" && s.Name != "" {
						l.Param = s.Name
					}
					continue
				}
				found[k] = &core.Leak{
					Site:       siteDomain,
					Receiver:   receiver,
					Cloaked:    cloaked,
					Method:     s.Kind,
					Param:      s.Name,
					Token:      tok,
					RequestURL: rec.Request.URL,
					Phase:      rec.Phase,
					Seq:        rec.Seq,
				}
				order = append(order, k)
			}
		}
	}
	scan(true)  // named surfaces first: they own parameter attribution
	scan(false) // whole-region surfaces catch the rest

	if len(order) == 0 {
		return nil
	}
	out := make([]core.Leak, 0, len(order))
	for _, k := range order {
		out = append(out, *found[k])
	}
	return out
}

// DetectSite scans all records of one site crawl.
func (d *Legacy) DetectSite(siteDomain string, records []httpmodel.Record) []core.Leak {
	var out []core.Leak
	for i := range records {
		out = append(out, d.DetectRecord(siteDomain, &records[i])...)
	}
	return out
}

// DecodeDetect is the A3 decode-and-scan strategy: every invertible
// codec applied to each surface up to maxDepth times, the decoded bytes
// scanned, the output sorted by (method, param, token).
func (d *Legacy) DecodeDetect(siteDomain string, rec *httpmodel.Record, maxDepth int) []core.Leak {
	receiver, cloaked := core.ReceiverOf(d.PSL, d.CNAME, siteDomain, rec.Request.Host())
	if receiver == "" {
		return nil
	}
	codecs := encode.Invertible()
	var out []core.Leak
	seen := map[string]bool{}
	var scanData func(s httpmodel.Surface, data []byte, depth int)
	scanData = func(s httpmodel.Surface, data []byte, depth int) {
		for _, tok := range d.Candidates.FindIn(data) {
			k := string(s.Kind) + "|" + tok.Value
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, core.Leak{
				Site: siteDomain, Receiver: receiver, Cloaked: cloaked,
				Method: s.Kind, Param: s.Name, Token: tok,
				RequestURL: rec.Request.URL, Phase: rec.Phase, Seq: rec.Seq,
			})
		}
		if depth >= maxDepth {
			return
		}
		for _, name := range codecs {
			c, _ := encode.Lookup(name)
			dec, err := c.Decode(data)
			if err != nil || len(dec) == 0 {
				continue
			}
			scanData(s, dec, depth+1)
		}
	}
	for _, s := range httpmodel.Surfaces(&rec.Request) {
		scanData(s, s.Data, 0)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Method != out[b].Method {
			return out[a].Method < out[b].Method
		}
		if out[a].Param != out[b].Param {
			return out[a].Param < out[b].Param
		}
		return out[a].Token.Value < out[b].Token.Value
	})
	return out
}
