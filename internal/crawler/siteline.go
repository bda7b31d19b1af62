package crawler

import (
	"encoding/json"
	"math"
	"strconv"

	"piileak/internal/site"
)

// A study-neutral site line is a SiteResult with its index, its crawl's
// scalar fields and its record count alone: no captured records, mail,
// blocks, leaks or requests. Nearly every line of a universe run is one,
// so the checkpoint writes and reads it by hand, byte for byte as
// encoding/json does (FuzzSiteLine pins both directions):
//
//	{"index":N,"crawl":{"domain":"S","rank":N,"outcome":"S"[,"obstacle":"S"]
//	[,"email_confirm":true][,"bot_detection":true][,"attempts":N]
//	[,"retries":N][,"failed_fetches":N]}[,"records":N]}
//
// with every string plain (plainByte). Every other line, and every line
// the reader declines, goes through encoding/json.

// appendNeutralLine appends r's line, the bytes json.Marshal writes, to
// dst when r is study-neutral and its strings are plain; otherwise it
// returns dst unchanged and false.
func appendNeutralLine(dst []byte, r *SiteResult) ([]byte, bool) {
	c := &r.Crawl
	if len(c.Records) > 0 || len(r.Mail) > 0 || len(r.Blocked) > 0 || len(r.Leaks) > 0 || len(r.Requests) > 0 ||
		!plain(c.Domain) || !plain(string(c.Outcome)) || !plain(string(c.Obstacle)) {
		return dst, false
	}
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(r.Index), 10)
	dst = append(append(append(dst, `,"crawl":{"domain":"`...), c.Domain...), '"')
	dst = strconv.AppendInt(append(dst, `,"rank":`...), int64(c.Rank), 10)
	dst = append(append(append(dst, `,"outcome":"`...), c.Outcome...), '"')
	if c.Obstacle != "" {
		dst = append(append(append(dst, `,"obstacle":"`...), c.Obstacle...), '"')
	}
	if c.EmailConfirm {
		dst = append(dst, `,"email_confirm":true`...)
	}
	if c.BotDetection {
		dst = append(dst, `,"bot_detection":true`...)
	}
	dst = appendNonZero(dst, `,"attempts":`, c.Attempts)
	dst = appendNonZero(dst, `,"retries":`, c.Retries)
	dst = appendNonZero(dst, `,"failed_fetches":`, c.FailedFetches)
	dst = appendNonZero(append(dst, '}'), `,"records":`, r.Records)
	return append(dst, '}'), true
}

// appendNonZero appends an omitempty integer field: key and v, unless v
// is 0.
func appendNonZero(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// plainByte reports whether encoding/json writes b inside a string as
// itself: printable ASCII other than the quote, the backslash and the
// three bytes it escapes for HTML.
func plainByte(b byte) bool {
	return b >= 0x20 && b < 0x7f && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// decodeSiteLine decodes one checkpoint site line into r, by hand when
// it has the study-neutral shape and through encoding/json otherwise.
// Only the fallback hands a SiteResult to encoding/json, so only it
// moves one to the heap.
func decodeSiteLine(line []byte, r *SiteResult) bool {
	if parseNeutralLine(line, r) {
		return true
	}
	var s SiteResult
	if json.Unmarshal(line, &s) != nil {
		return false
	}
	*r = s
	return true
}

// parseNeutralLine decodes a line of exactly the study-neutral shape,
// ending in at most one newline, into r. Keys must come in that order
// with no whitespace, strings must be plain and integers non-negative
// without leading zeros; any other line leaves r untouched and returns
// false. What it accepts, json.Unmarshal decodes to the same value.
func parseNeutralLine(line []byte, r *SiteResult) bool {
	p := lineParser{b: line, ok: true}
	var s SiteResult
	c := &s.Crawl
	p.lit(`{"index":`)
	s.Index = p.int()
	p.lit(`,"crawl":{"domain":`)
	domain := p.str()
	p.lit(`,"rank":`)
	c.Rank = p.int()
	p.lit(`,"outcome":`)
	c.Outcome = intern(p.str(), outcomes)
	if p.next(`,"obstacle":`) {
		c.Obstacle = intern(p.str(), obstacles)
	}
	c.EmailConfirm = p.next(`,"email_confirm":true`)
	c.BotDetection = p.next(`,"bot_detection":true`)
	if p.next(`,"attempts":`) {
		c.Attempts = p.int()
	}
	if p.next(`,"retries":`) {
		c.Retries = p.int()
	}
	if p.next(`,"failed_fetches":`) {
		c.FailedFetches = p.int()
	}
	p.lit(`}`)
	if p.next(`,"records":`) {
		s.Records = p.int()
	}
	p.lit(`}`)
	p.next("\n")
	if !p.ok || len(p.b) > 0 {
		return false
	}
	c.Domain = string(domain)
	*r = s
	return true
}

// lineParser reads a line front to back. A step that does not find
// what it expects clears ok, and every later step is a no-op.
type lineParser struct {
	b  []byte
	ok bool
}

// next consumes s if the line continues with it.
func (p *lineParser) next(s string) bool {
	if !p.ok || len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

// lit consumes s, which the line must continue with.
func (p *lineParser) lit(s string) {
	if !p.next(s) {
		p.ok = false
	}
}

// int consumes a non-negative integer without a leading zero that fits
// an int.
func (p *lineParser) int() int {
	n := 0
	for n < len(p.b) && p.b[n] >= '0' && p.b[n] <= '9' {
		n++
	}
	if !p.ok || n == 0 || n > 19 || n > 1 && p.b[0] == '0' {
		p.ok = false
		return 0
	}
	var v uint64 // 19 digits cannot overflow it
	for _, d := range p.b[:n] {
		v = v*10 + uint64(d-'0')
	}
	if v > math.MaxInt {
		p.ok = false
		return 0
	}
	p.b = p.b[n:]
	return int(v)
}

// str consumes a quoted string of plain bytes and returns its contents,
// which alias the line.
func (p *lineParser) str() []byte {
	if !p.next(`"`) {
		p.ok = false
		return nil
	}
	n := 0
	for n < len(p.b) && plainByte(p.b[n]) {
		n++
	}
	s := p.b[:n]
	p.b = p.b[n:]
	p.lit(`"`)
	return s
}

// The outcomes and obstacles a crawl records: a decoded line shares
// these strings instead of allocating its own.
var (
	outcomes  = []Outcome{OutcomeSuccess, OutcomeUnreachable, OutcomeNoAuthFlow, OutcomeSignupBlocked, OutcomeCaptcha, OutcomePartial, OutcomeTimeout, OutcomeCrashed}
	obstacles = []site.Obstacle{site.ObstacleUnreachable, site.ObstacleNoAuth, site.ObstaclePhoneVerify, site.ObstacleIDDocuments, site.ObstacleRegionBlock}
)

// intern returns the value of known spelled b, or b's own copy.
func intern[T ~string](b []byte, known []T) T {
	for _, k := range known {
		if string(b) == string(k) {
			return k
		}
	}
	return T(b)
}
