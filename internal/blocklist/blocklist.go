// Package blocklist implements an Adblock Plus filter engine with the
// rule semantics the paper's §7.2 evaluation relies on (it used the
// Python adblockparser library over EasyList and EasyPrivacy): domain
// anchors (||), start/end anchors (|), wildcards (*), the ^ separator,
// exception rules (@@), and the $ options third-party/~third-party,
// domain= and resource types.
//
// Element-hiding rules (##, #@#) and the rarely relevant options (popup,
// csp, ...) are parsed and skipped, exactly as a network-request matcher
// should treat them.
package blocklist

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"unicode/utf8"

	"piileak/internal/httpmodel"
	"piileak/internal/psl"
)

// ResourceType classifies a request for $type options. It is the traffic
// model's resource type.
type ResourceType = httpmodel.ResourceType

// Resource types re-exported for rule matching.
const (
	TypeScript      = httpmodel.TypeScript
	TypeImage       = httpmodel.TypeImage
	TypeStylesheet  = httpmodel.TypeStylesheet
	TypeXHR         = httpmodel.TypeXHR
	TypeSubdocument = httpmodel.TypeSubdocument
	TypePing        = httpmodel.TypePing
	TypeDocument    = httpmodel.TypeDocument
	TypeOther       = httpmodel.TypeOther
)

// RequestInfo carries the request attributes rule options inspect.
type RequestInfo struct {
	// URL is the absolute request URL.
	URL string
	// PageHost is the host of the page issuing the request.
	PageHost string
	// Type is the resource type.
	Type ResourceType
	// ThirdParty reports whether the request crosses registrable
	// domains (computed by the caller, usually via psl).
	ThirdParty bool
}

// Rule is one compiled network filter.
type Rule struct {
	// Raw is the original filter text.
	Raw string
	// Exception marks @@ rules.
	Exception bool

	re *regexp.Regexp
	// lit is the longest run of ASCII characters the pattern matches
	// literally, lower-cased ("" when it has none): every ASCII URL
	// the regexp matches contains it once lower-cased, so matching
	// skips a rule whose run is absent without evaluating its options
	// or its regexp.
	lit      string
	hasTP    bool
	tpValue  bool           // value required when hasTP
	types    []ResourceType // positive $type options; empty means any type
	notTypes []ResourceType // negated ($~type) options
	domains  []domainOpt
}

type domainOpt struct {
	domain string
	invert bool
}

// List is a named, ordered set of compiled rules.
type List struct {
	Name  string
	Rules []Rule
	// Skipped counts lines that were comments, cosmetic filters or
	// unsupported rules.
	Skipped int
}

// ParseList compiles a filter list from ABP text format.
func ParseList(name, text string) (*List, error) {
	l := &List{Name: name}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
			l.Skipped++
			continue
		}
		// Cosmetic filters.
		if strings.Contains(line, "##") || strings.Contains(line, "#@#") || strings.Contains(line, "#?#") {
			l.Skipped++
			continue
		}
		rule, ok, err := compileRule(line)
		if err != nil {
			return nil, fmt.Errorf("blocklist: line %d: %w", lineNo+1, err)
		}
		if !ok {
			l.Skipped++
			continue
		}
		l.Rules = append(l.Rules, rule)
	}
	return l, nil
}

// compileRule translates one filter into a Rule. ok=false means the rule
// is recognized but unsupported (skipped).
func compileRule(line string) (Rule, bool, error) {
	r := Rule{Raw: line}
	body := line
	if strings.HasPrefix(body, "@@") {
		r.Exception = true
		body = body[2:]
	}

	// Split off options at the last unescaped '$'.
	if idx := strings.LastIndex(body, "$"); idx >= 0 && !strings.Contains(body[idx:], "/") {
		opts := strings.Split(body[idx+1:], ",")
		body = body[:idx]
		for _, o := range opts {
			o = strings.TrimSpace(o)
			switch {
			case o == "third-party":
				r.hasTP, r.tpValue = true, true
			case o == "~third-party":
				r.hasTP, r.tpValue = true, false
			case strings.HasPrefix(o, "domain="):
				for _, d := range strings.Split(o[len("domain="):], "|") {
					d = strings.TrimSpace(d)
					if d == "" {
						continue
					}
					if strings.HasPrefix(d, "~") {
						r.domains = append(r.domains, domainOpt{domain: psl.Normalize(d[1:]), invert: true})
					} else {
						r.domains = append(r.domains, domainOpt{domain: psl.Normalize(d)})
					}
				}
			case isTypeOption(o):
				if strings.HasPrefix(o, "~") {
					r.notTypes = append(r.notTypes, ResourceType(o[1:]))
				} else {
					r.types = append(r.types, ResourceType(o))
				}
			default:
				// Unsupported option (popup, csp, redirect, ...):
				// skip the whole rule, as adblockparser does when
				// asked to honour unsupported options.
				return Rule{}, false, nil
			}
		}
	}

	if body == "" {
		return Rule{}, false, nil
	}
	re, lit, err := ruleToRegexp(body)
	if err != nil {
		return Rule{}, false, err
	}
	r.re, r.lit = re, lit
	return r, true, nil
}

func isTypeOption(o string) bool {
	o = strings.TrimPrefix(o, "~")
	switch ResourceType(o) {
	case TypeScript, TypeImage, TypeStylesheet, TypeXHR, TypeSubdocument, TypePing, TypeDocument, TypeOther:
		return true
	}
	return false
}

// ruleToRegexp mirrors adblockparser's translation of ABP filter syntax
// to a regular expression. It also returns the rule's prefilter: the
// longest run of pattern characters the regexp matches literally (the
// anchors stripped, split at '*', '^' and every non-ASCII byte),
// lower-cased.
func ruleToRegexp(body string) (*regexp.Regexp, string, error) {
	var sb strings.Builder
	sb.WriteString("(?i)") // ABP matching is case-insensitive

	i := 0
	// Domain anchor.
	if strings.HasPrefix(body, "||") {
		sb.WriteString(`^(?:[^:/?#]+:)?(?://(?:[^/?#]*\.)?)?`)
		i = 2
	} else if strings.HasPrefix(body, "|") {
		sb.WriteString("^")
		i = 1
	}
	end := len(body)
	endAnchor := false
	if strings.HasSuffix(body, "|") && end > i {
		endAnchor = true
		end--
	}
	lit, run := "", i // run starts the current literal run
	for ; i < end; i++ {
		c := body[i]
		switch c {
		case '*':
			sb.WriteString(".*")
		case '^':
			sb.WriteString(`(?:[^\w\-.%]|$)`)
		case '.', '+', '?', '$', '{', '}', '(', ')', '[', ']', '/', '\\', '|':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		default:
			sb.WriteByte(c)
		}
		// (?i) lets a non-ASCII pattern rune match an ASCII URL byte
		// (U+017F matches 's'), so only ASCII characters join a run.
		if c == '*' || c == '^' || c >= utf8.RuneSelf {
			if i-run > len(lit) {
				lit = body[run:i]
			}
			run = i + 1
		}
	}
	if end-run > len(lit) {
		lit = body[run:end]
	}
	if endAnchor {
		sb.WriteString("$")
	}
	re, err := regexp.Compile(sb.String())
	return re, strings.ToLower(lit), err
}

// request is a RequestInfo prepared for matching: its URL ASCII-folded
// once for every rule's literal prefilter.
type request struct {
	RequestInfo
	// folded is the lower-cased URL when ascii holds. A URL with a
	// non-ASCII byte skips the prefilter: (?i) folds U+212A to 'k'
	// and U+017F to 's', which byte-wise ASCII folding cannot see.
	folded string
	ascii  bool
}

func prepare(ri RequestInfo) request {
	for i := 0; i < len(ri.URL); i++ {
		if ri.URL[i] >= utf8.RuneSelf {
			return request{RequestInfo: ri}
		}
	}
	return request{RequestInfo: ri, folded: strings.ToLower(ri.URL), ascii: true}
}

// matches reports whether the rule's pattern and options all hold. The
// literal prefilter only rejects; the regexp decides every match.
func (r *Rule) matches(q *request) bool {
	if r.lit != "" && q.ascii && !strings.Contains(q.folded, r.lit) {
		return false
	}
	if r.hasTP && q.ThirdParty != r.tpValue {
		return false
	}
	if len(r.domains) > 0 && !r.domainAllowed(q.PageHost) {
		return false
	}
	if len(r.types) > 0 && !slices.Contains(r.types, q.Type) {
		return false
	}
	if slices.Contains(r.notTypes, q.Type) {
		return false
	}
	return r.re.MatchString(q.URL)
}

func (r *Rule) domainAllowed(pageHost string) bool {
	pageHost = psl.Normalize(pageHost)
	anyPositive := false
	matchedPositive := false
	for _, d := range r.domains {
		suffixMatch := pageHost == d.domain || strings.HasSuffix(pageHost, "."+d.domain)
		if d.invert {
			if suffixMatch {
				return false
			}
			continue
		}
		anyPositive = true
		if suffixMatch {
			matchedPositive = true
		}
	}
	if anyPositive && !matchedPositive {
		return false
	}
	return true
}

// Decision is the outcome of matching one request against lists.
type Decision struct {
	// Blocked reports the final verdict.
	Blocked bool
	// Rule is the filter that decided the outcome (a block rule, or
	// the exception that saved the request); nil when nothing matched.
	Rule *Rule
	// List is the name of the list the deciding rule came from.
	List string
}

// Scan reports whether any block rule and whether any exception rule of
// the list match the request. Under ABP semantics the list alone blocks
// it when block && !exception; across several lists an exception in
// any of them overrides a block in any.
func (l *List) Scan(ri RequestInfo) (block, exception bool) {
	q := prepare(ri)
	b, x := l.scan(&q)
	return b >= 0, x >= 0
}

// scan returns the indices of the first block rule and of the first
// exception rule that match q, -1 where none does. Once a kind has
// matched, later rules of that kind are skipped unevaluated.
func (l *List) scan(q *request) (block, exception int) {
	block, exception = -1, -1
	for i := range l.Rules {
		r := &l.Rules[i]
		found := &block
		if r.Exception {
			found = &exception
		}
		if *found >= 0 || !r.matches(q) {
			continue
		}
		*found = i
		if block >= 0 && exception >= 0 {
			break
		}
	}
	return block, exception
}

// Engine matches requests against one or more lists with ABP semantics:
// any matching exception rule overrides any matching block rule.
type Engine struct {
	lists []*List
}

// NewEngine combines lists; order only affects which rule gets reported.
func NewEngine(lists ...*List) *Engine { return &Engine{lists: lists} }

// Match evaluates a request: the first matching exception rule saves
// it; otherwise the first matching block rule blocks it.
func (e *Engine) Match(ri RequestInfo) Decision {
	q := prepare(ri)
	var d Decision
	for _, l := range e.lists {
		block, exception := l.scan(&q)
		if exception >= 0 {
			return Decision{Rule: &l.Rules[exception], List: l.Name}
		}
		if block >= 0 && d.Rule == nil {
			d = Decision{Blocked: true, Rule: &l.Rules[block], List: l.Name}
		}
	}
	return d
}
