package detect

import (
	"sort"
	"strings"

	"piileak/internal/core"
	"piileak/internal/encode"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
)

// Scanner is the mutable per-worker half of the two-phase detector: all
// scratch state a scan needs — match buffers, surface buffers,
// percent-decoding buffers, the host→receiver memo — lives here and is
// reused across records, so the steady-state no-leak path allocates
// nothing. A Scanner is NOT safe for concurrent use; create one per
// detect worker with Engine.NewScanner (the Engine itself stays shared).
type Scanner struct {
	eng *Engine

	// scratch is the automaton dedup state.
	scratch pii.Scratch
	// idxBuf receives match indices per surface.
	idxBuf []int
	// surfBuf is the reusable surface slice for SurfacesInto.
	surfBuf []httpmodel.Surface
	// dec is the percent-decoding scratch for the prefilter.
	dec []byte

	// curSite and hostRecv memoize receiver classification per site:
	// crawls hit the same third-party endpoints dozens of times per
	// page, and receiverOf costs a url.Parse plus two PSL walks.
	// Classification depends on the visited site, so the memo clears on
	// site change.
	curSite  string
	hostRecv map[string]recvEntry
}

type recvEntry struct {
	receiver string
	cloaked  bool
}

// NewScanner returns a fresh scanner bound to the engine. Intended use
// is one Scanner per detect worker, scanning records serially.
func (e *Engine) NewScanner() *Scanner {
	return &Scanner{eng: e, hostRecv: make(map[string]recvEntry)}
}

// Engine returns the immutable engine this scanner scans with.
func (s *Scanner) Engine() *Engine { return s.eng }

// DetectSite scans all records of one site crawl.
func (s *Scanner) DetectSite(siteDomain string, records []httpmodel.Record) []core.Leak {
	var out []core.Leak
	for i := range records {
		out = append(out, s.DetectRecord(siteDomain, &records[i])...)
	}
	return out
}

// DetectRecord returns the leaks in one captured request. Matches are
// deduplicated per (method, token); named surfaces (query parameters,
// cookies, body fields) scan first and own the parameter attribution,
// whole-region surfaces catch the rest.
func (s *Scanner) DetectRecord(siteDomain string, rec *httpmodel.Record) []core.Leak {
	s.beginSite(siteDomain)
	receiver, cloaked := s.receiverFor(&rec.Request)
	if receiver == "" {
		return nil
	}
	if !s.mightLeak(&rec.Request) {
		// The prefilter proved no surface can match: every surface the
		// full scan would build is a substring of a raw or
		// scratch-decoded region mightLeak checked.
		return nil
	}
	return s.scanRecord(siteDomain, receiver, cloaked, rec)
}

func (s *Scanner) beginSite(siteDomain string) {
	if siteDomain == s.curSite {
		return
	}
	s.curSite = siteDomain
	clear(s.hostRecv)
}

// receiverFor memoizes receiver classification by the URL's authority
// substring: every URL sharing an authority parses to the same host, so
// one url.Parse + PSL walk serves all requests to that endpoint within
// a site. URLs whose authority cannot be delimited syntactically fall
// back to the full URL as key (always sound, never shared).
func (s *Scanner) receiverFor(r *httpmodel.Request) (string, bool) {
	k := authorityKey(r.URL)
	if e, ok := s.hostRecv[k]; ok {
		return e.receiver, e.cloaked
	}
	recv, cloaked := core.ReceiverOf(s.eng.list, s.eng.cname, s.curSite, r.Host())
	s.hostRecv[k] = recvEntry{receiver: recv, cloaked: cloaked}
	return recv, cloaked
}

// authorityKey extracts the authority component the way url.Parse
// delimits it: fragment cut at the first '#', query at the first '?',
// authority after "://" up to the next '/'. The scheme must be valid for
// "://" to act as the authority marker; otherwise the whole URL is the
// key, which memoizes that exact URL only.
//
// The key must never equate two URLs whose Host() differs. Host() is ""
// whenever url.Parse fails, and parse success can hinge on parts outside
// the authority: an invalid escape in the path, userinfo, or fragment
// (query escapes are not validated at parse time), or a control byte
// anywhere. So any URL with '%' outside its query or a control byte is
// self-keyed — same string, same Host(), always sound — at the cost of a
// memo miss for that record.
func authorityKey(rawurl string) string {
	s := rawurl
	if i := strings.IndexByte(s, '#'); i >= 0 {
		if strings.IndexByte(s[i+1:], '%') >= 0 {
			return rawurl
		}
		s = s[:i]
	}
	if i := strings.IndexByte(s, '?'); i >= 0 {
		s = s[:i]
	}
	if strings.IndexByte(s, '%') >= 0 || hasCTL(rawurl) {
		return rawurl
	}
	i := strings.Index(s, "://")
	if i < 0 || !validScheme(s[:i]) {
		return rawurl
	}
	rest := s[i+3:]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		return rest[:j]
	}
	return rest
}

// hasCTL reports whether s contains a byte url.Parse rejects outright
// (ASCII control characters, including DEL).
func hasCTL(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < ' ' || s[i] == 0x7f {
			return true
		}
	}
	return false
}

// validScheme mirrors net/url's scheme grammar: ALPHA *(ALPHA / DIGIT /
// "+" / "-" / ".").
func validScheme(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		case '0' <= c && c <= '9' || c == '+' || c == '-' || c == '.':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// mightLeak is the zero-allocation prefilter: it probes the candidate
// automaton over raw regions and scratch-decoded variants that together
// form a provable superset of every surface the full scan would build.
// false is conclusive (the record is clean); true falls through to the
// full scan.
//
// Superset argument, per channel:
//
//   - referer: surfaces are the raw header and its query-unescaped form
//     (absent when unescape fails) — both checked directly.
//   - uri: the raw URL covers the raw query and the path's encoded
//     bytes; the query-mode decode of the query substring covers the
//     decoded-query surface and every named parameter value (percent
//     decoding is byte-local, so a decoded pair value is a substring of
//     the decoded whole); the path-mode decode of the pre-query prefix
//     covers u.Path ('+' stays literal there). A failed whole-query
//     decode is NOT conclusive — individual pairs may still decode — so
//     it forces the slow path; a failed prefix decode implies url.Parse
//     fails and the full scan builds no uri surfaces at all.
//   - cookie: raw value plus its query-unescaped form, as the full scan.
//   - payload: the raw body; for form bodies a query-mode decode of the
//     whole body covers every pair value (decode failure → slow path:
//     ParseQuery drops only the failing pairs); for JSON bodies a raw
//     miss is conclusive only when the engine's tokens cannot be
//     produced by number/bool re-rendering (jsonLeafSafe) and the body
//     contains no escape sequences — otherwise slow path.
func (s *Scanner) mightLeak(r *httpmodel.Request) bool {
	cs := s.eng.cands

	if ref := r.Referer(); ref != "" {
		if cs.ContainsString(ref) {
			return true
		}
		if dec, ok := unescapeInto(s.dec[:0], ref, true); ok {
			s.dec = dec[:0]
			if cs.Contains(dec) {
				return true
			}
		}
	}

	if u := r.URL; u != "" {
		if cs.ContainsString(u) {
			return true
		}
		prefix, query := splitURL(u)
		if query != "" {
			dec, ok := unescapeInto(s.dec[:0], query, true)
			if !ok {
				return true // pairs may still decode individually
			}
			s.dec = dec[:0]
			if cs.Contains(dec) {
				return true
			}
		}
		if strings.IndexByte(prefix, '%') >= 0 {
			if dec, ok := unescapeInto(s.dec[:0], prefix, false); ok {
				s.dec = dec[:0]
				if cs.Contains(dec) {
					return true
				}
			}
			// Decode failure: url.Parse rejects the URL, so the full
			// scan has no uri surfaces either — conclusive.
		}
	}

	for i := range r.Cookies {
		v := r.Cookies[i].Value
		if cs.ContainsString(v) {
			return true
		}
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			if dec, ok := unescapeInto(s.dec[:0], v, true); ok {
				s.dec = dec[:0]
				if cs.Contains(dec) {
					return true
				}
			}
		}
	}

	if len(r.Body) > 0 {
		if cs.Contains(r.Body) {
			return true
		}
		switch {
		case strings.HasPrefix(r.BodyType, "application/x-www-form-urlencoded"):
			dec, ok := unescapeInto(s.dec[:0], r.Body, true)
			if !ok {
				return true // ParseQuery drops only the failing pairs
			}
			s.dec = dec[:0]
			if cs.Contains(dec) {
				return true
			}
		case strings.HasPrefix(r.BodyType, "application/json"):
			if !s.eng.jsonLeafSafe || indexByte(r.Body, '\\') >= 0 {
				return true
			}
		}
	}
	return false
}

// scanRecord is the full scan, reached only for records the prefilter
// could not clear. Allocations here (the dedup map, the leak slice) are
// per-leaky-record, off the steady-state path.
func (s *Scanner) scanRecord(siteDomain, receiver string, cloaked bool, rec *httpmodel.Record) []core.Leak {
	s.surfBuf = httpmodel.SurfacesInto(&rec.Request, s.surfBuf[:0])
	surfaces := s.surfBuf
	cs := s.eng.cands

	type key struct {
		method httpmodel.SurfaceKind
		value  string
	}
	found := map[key]*core.Leak{}
	var order []key

	scan := func(named bool) {
		for i := range surfaces {
			sf := &surfaces[i]
			if (sf.Name != "") != named {
				continue
			}
			s.idxBuf = cs.FindInto(sf.Data, &s.scratch, s.idxBuf[:0])
			for _, idx := range s.idxBuf {
				tok := cs.TokenAt(idx)
				k := key{sf.Kind, tok.Value}
				if l, ok := found[k]; ok {
					if l.Param == "" && sf.Name != "" {
						l.Param = sf.Name
					}
					continue
				}
				found[k] = &core.Leak{
					Site:       siteDomain,
					Receiver:   receiver,
					Cloaked:    cloaked,
					Method:     sf.Kind,
					Param:      sf.Name,
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

// DecodeDetect is the alternative detection strategy of ablation A3:
// instead of pre-computing encoded candidate tokens, it iteratively
// applies every invertible codec to each surface up to maxDepth times
// and scans the decoded bytes. It catches encoding-wrapped leaks with a
// much smaller candidate set, but misses encodings it cannot invert and
// tokens embedded mid-surface. Output is sorted by (method, param,
// token): the token value alone ties when the same token surfaces on
// two channels, and the A3 output must not depend on surface order.
func (s *Scanner) DecodeDetect(siteDomain string, rec *httpmodel.Record, maxDepth int) []core.Leak {
	s.beginSite(siteDomain)
	receiver, cloaked := s.receiverFor(&rec.Request)
	if receiver == "" {
		return nil
	}
	var out []core.Leak
	seen := map[string]bool{}
	var scanData func(sf httpmodel.Surface, data []byte, depth int)
	scanData = func(sf httpmodel.Surface, data []byte, depth int) {
		for _, tok := range s.eng.cands.FindIn(data) {
			k := string(sf.Kind) + "|" + tok.Value
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, core.Leak{
				Site: siteDomain, Receiver: receiver, Cloaked: cloaked,
				Method: sf.Kind, Param: sf.Name, Token: tok,
				RequestURL: rec.Request.URL, Phase: rec.Phase, Seq: rec.Seq,
			})
		}
		if depth >= maxDepth {
			return
		}
		for _, name := range invertibleCodecs {
			c, _ := encode.Lookup(name)
			dec, err := c.Decode(data)
			if err != nil || len(dec) == 0 {
				continue
			}
			scanData(sf, dec, depth+1)
		}
	}
	s.surfBuf = httpmodel.SurfacesInto(&rec.Request, s.surfBuf[:0])
	for _, sf := range s.surfBuf {
		scanData(sf, sf.Data, 0)
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

// invertibleCodecs caches the decodable codec names for DecodeDetect.
var invertibleCodecs = encode.Invertible()

// splitURL cuts a raw URL the way url.Parse delimits it: fragment at the
// first '#', then query at the first '?' of what remains.
func splitURL(u string) (prefix, query string) {
	if i := strings.IndexByte(u, '#'); i >= 0 {
		u = u[:i]
	}
	if j := strings.IndexByte(u, '?'); j >= 0 {
		return u[:j], u[j+1:]
	}
	return u, ""
}

// unescapeInto percent-decodes s into dst, mirroring url.QueryUnescape
// (plusToSpace) / url.PathUnescape (!plusToSpace) semantics exactly:
// a '%' not followed by two hex digits fails, everything else passes
// through. It allocates only when dst's capacity is exceeded.
func unescapeInto[T text](dst []byte, s T, plusToSpace bool) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '%':
			if i+2 >= len(s) || !ishex(s[i+1]) || !ishex(s[i+2]) {
				return dst, false
			}
			dst = append(dst, unhex(s[i+1])<<4|unhex(s[i+2]))
			i += 2
		case c == '+' && plusToSpace:
			dst = append(dst, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst, true
}

type text interface{ ~string | ~[]byte }

func indexByte[T text](s T, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func ishex(c byte) bool {
	switch {
	case '0' <= c && c <= '9', 'a' <= c && c <= 'f', 'A' <= c && c <= 'F':
		return true
	}
	return false
}

func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	}
	return c - 'A' + 10
}
