// Package site models a first-party shopping site in the synthetic web:
// its pages, authentication forms, embedded third-party tags with their
// leak behaviours (Figure 1's four channels), CNAME-cloaked subdomains,
// and its privacy-policy disclosure class (§6).
//
// A Site is pure data plus deterministic request-construction logic; the
// browser package decides which requests actually happen (cookie policy,
// shields, ...), and the crawler package sequences the §3.2 flow.
package site

import (
	"fmt"
	"net/url"
	"strings"

	"piileak/internal/blocklist"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/psl"
)

// Obstacle explains why a site drops out of the §3.2 collection funnel.
type Obstacle string

// Funnel obstacles, matching the paper's accounting (404 → 307).
const (
	ObstacleNone        Obstacle = ""
	ObstacleUnreachable Obstacle = "unreachable"
	ObstacleNoAuth      Obstacle = "no_auth_flow"
	ObstaclePhoneVerify Obstacle = "phone_verification"
	ObstacleIDDocuments Obstacle = "id_documents"
	ObstacleRegionBlock Obstacle = "region_blocked"
)

// PolicyClass is the privacy-policy disclosure category of Table 3.
type PolicyClass string

// Table 3 disclosure classes.
const (
	PolicyNotSpecific   PolicyClass = "not_specific"
	PolicySpecific      PolicyClass = "specific"
	PolicyNoDescription PolicyClass = "no_description"
	PolicyExplicitlyNot PolicyClass = "explicitly_not"
)

// LeakAction describes how a tag exfiltrates PII on authentication
// events (and, when the tag is persistent, on later page views).
type LeakAction struct {
	// Method is the leak channel: SurfaceURI, SurfaceBody or
	// SurfaceCookie. Referer leaks are not actions — they emerge from
	// GET signup forms.
	Method httpmodel.SurfaceKind
	// Param is the PII identifier parameter (§5.1's trackid), the body
	// field, or the cookie name.
	Param string
	// Chain is the encoding/hash chain applied to each PII value
	// (empty = plaintext).
	Chain []string
	// PII lists the leaked types; email-only is the common case.
	PII []pii.Type
	// JSONBody emits the payload as JSON instead of a form body.
	JSONBody bool
}

// Tag is one third-party resource a site embeds.
type Tag struct {
	// Receiver is the registrable domain that ultimately receives the
	// data (the reporting identity; for cloaked tags this differs from
	// Host's registrable domain).
	Receiver string
	// Host is the request host; for CNAME-cloaked tags this is a
	// first-party subdomain.
	Host string
	// Path is the resource path of the tag's script/pixel.
	Path string
	// Type is the tag's resource type for blocklist evaluation.
	Type blocklist.ResourceType
	// OnSubpages marks tags present beyond the auth pages; combined
	// with a LeakAction this is §5.2's persistence cue.
	OnSubpages bool
	// Actions is the tag's leak behaviour; empty for benign tags.
	Actions []LeakAction

	// url is the resource URL WithURL stored, and etld1 the
	// registrable domain of Host ("" when it has none).
	url, etld1 string
}

// WithURL returns t with its resource URL and its host's registrable
// domain (under the default public-suffix list, the one a browser
// classifies with) resolved once, for a generator to call when t's Host
// and Path are final: every load and leak request the tag makes reuses
// them. Nothing may change a tag after that.
func (t Tag) WithURL() Tag {
	t.url = t.URL()
	t.etld1, _ = psl.ETLDPlusOne(t.Host)
	return t
}

// RegistrableDomain returns the registrable domain of the tag's host
// ("" when it has none) as WithURL stored it, and false for a tag built
// without WithURL, whose host the caller must resolve itself.
func (t *Tag) RegistrableDomain() (string, bool) { return t.etld1, t.url != "" }

// URL returns the tag's resource URL: the one WithURL stored, or for a
// tag built without it, its concatenation.
func (t *Tag) URL() string {
	if t.url != "" {
		return t.url
	}
	return "https://" + t.Host + t.Path
}

// LoadsOn reports whether the tag is present on a page: every tag is on
// the auth pages, only OnSubpages tags on a subpage.
func (t *Tag) LoadsOn(subpage bool) bool { return !subpage || t.OnSubpages }

// Site is one first-party site.
type Site struct {
	// Domain is the site's registrable domain (its eTLD+1), and every
	// page of the site is on host "www." + Domain. The browser relies on
	// both: a page's registrable domain is Domain, with no public-suffix
	// walk, so a generator must never put a longer host here.
	Domain string
	// Rank is the Tranco rank.
	Rank int
	// SignupGET marks the poorly-coded GET signup form that causes
	// referer leaks (§4.1, "unintentional leakage").
	SignupGET bool
	// EmailConfirm requires the emailed activation link (§3.2: 68
	// sites).
	EmailConfirm bool
	// BotDetection marks sites running bot checks (§3.2: 43 sites).
	BotDetection bool
	// CaptchaBreaksUnderShields marks the one site whose CAPTCHA flow
	// breaks when Brave blocks its script (§7.1, nykaa.com).
	CaptchaBreaksUnderShields bool
	// Obstacle removes the site from the crawl funnel.
	Obstacle Obstacle
	// Collected lists the PII types the signup form asks for.
	Collected []pii.Type
	// FieldNaming selects the form's input-name scheme: 0 plain
	// ("email"), 1 prefixed ("user_email"), 2 camelCase
	// ("loginEmail"), 3 exotic ("field_a7" — unmatchable by automated
	// form-filling heuristics, §3.2's motivation for manual
	// collection).
	FieldNaming int
	// Tags are the embedded third parties.
	Tags []Tag
	// CNAMEs maps this site's cloaked subdomains to tracker targets.
	CNAMEs map[string]string
	// Policy is the site's Table 3 disclosure class.
	Policy PolicyClass
	// MarketingMails is how many marketing e-mails the site sends the
	// persona after sign-up (inbox), SpamMails the spam-folder count
	// (§4.2.3).
	MarketingMails int
	SpamMails      int
}

// Host returns the site's canonical web host.
func (s *Site) Host() string { return "www." + s.Domain }

// assetPath is the path of the first-party script every page loads.
const assetPath = "/static/app.js"

// PageStrings returns the site's homepage URL (its origin, BaseURL),
// its host (Host) and the URL of the first-party script its pages load,
// all three slices of one string: a browser derives them once per site
// in one allocation.
func (s *Site) PageStrings() (origin, host, asset string) {
	asset = "https://www." + s.Domain + assetPath
	origin = asset[:len(asset)-len(assetPath)+1]
	return origin, origin[len("https://") : len(origin)-1], asset
}

// BaseURL returns the homepage URL.
func (s *Site) BaseURL() string { return "https://" + s.Host() + "/" }

// PageURL builds a URL for a site page path.
func (s *Site) PageURL(path string) string { return "https://" + s.Host() + path }

// SignupActionURL is where the signup form submits, including the PII
// query for GET forms.
func (s *Site) SignupActionURL(p pii.Persona) string {
	if !s.SignupGET {
		return s.PageURL("/account/signup")
	}
	q := url.Values{}
	for _, f := range s.FormFields(p) {
		q.Set(f.Name, f.Value)
	}
	return s.PageURL("/account/signup") + "?" + q.Encode()
}

// FormField is one signup-form input.
type FormField struct {
	Name  string
	Value string
}

// fieldNameSchemes maps each PII type to its input name under the four
// naming schemes. A human operator reads labels, so every scheme is
// fillable manually; scheme 3 defeats keyword-based automation.
var fieldNameSchemes = map[pii.Type][4]string{
	pii.TypeEmail:    {"email", "user_email", "loginEmail", "field_a7"},
	pii.TypeUsername: {"username", "user_name", "userName", "field_b2"},
	pii.TypeName:     {"name", "full_name", "fullName", "field_c9"},
	pii.TypePhone:    {"phone", "phone_number", "phoneNumber", "field_d4"},
	pii.TypeDOB:      {"dob", "birth_date", "birthDate", "field_e1"},
	pii.TypeGender:   {"gender", "user_gender", "genderSelect", "field_f6"},
	pii.TypeJob:      {"job_title", "occupation", "jobTitle", "field_g3"},
	pii.TypeAddress:  {"address", "street_address", "postalAddress", "field_h8"},
}

// FieldName returns the form-input name for a PII type under the site's
// naming scheme.
func (s *Site) FieldName(t pii.Type) string {
	scheme := s.FieldNaming
	if scheme < 0 || scheme > 3 {
		scheme = 0
	}
	names, ok := fieldNameSchemes[t]
	if !ok {
		return string(t)
	}
	return names[scheme]
}

// RequiredInputs lists the signup form's input names (including the
// password), the automated crawler's matching target.
func (s *Site) RequiredInputs() []string {
	out := make([]string, 0, len(s.Collected)+1)
	for _, t := range s.Collected {
		out = append(out, s.FieldName(t))
	}
	return append(out, "password")
}

// FormFields returns the signup form's fields filled with the persona's
// values, in a deterministic order.
func (s *Site) FormFields(p pii.Persona) []FormField {
	var out []FormField
	for _, t := range s.Collected {
		name := s.FieldName(t)
		switch t {
		case pii.TypeEmail:
			out = append(out, FormField{name, p.Email})
		case pii.TypeUsername:
			out = append(out, FormField{name, p.Username})
		case pii.TypeName:
			out = append(out, FormField{name, p.FullName()})
		case pii.TypePhone:
			out = append(out, FormField{name, p.Phone})
		case pii.TypeDOB:
			out = append(out, FormField{name, p.DOB})
		case pii.TypeGender:
			out = append(out, FormField{name, p.Gender})
		case pii.TypeJob:
			out = append(out, FormField{name, p.JobTitle})
		case pii.TypeAddress:
			out = append(out, FormField{name, p.Street + ", " + p.City + " " + p.Postal})
		}
	}
	out = append(out, FormField{"password", "correct-horse-battery"})
	return out
}

// leakValue renders one PII value through an action's chain.
func leakValue(p pii.Persona, typ pii.Type, chain []string) string {
	v := p.FieldValue(typ)
	if typ == pii.TypeName {
		v = p.FullName()
	}
	return string(pii.MustApplyChain(v, chain))
}

// paramFor derives the wire parameter carrying a given PII type: the
// action's main Param carries email (or the single leaked type), and
// secondary types get stable derived names.
func paramFor(action LeakAction, typ pii.Type) string {
	if len(action.PII) == 1 || typ == pii.TypeEmail {
		return action.Param
	}
	switch typ {
	case pii.TypeName:
		return action.Param + "_n"
	case pii.TypeUsername:
		return action.Param + "_u"
	default:
		return action.Param + "_" + string(typ)
	}
}

// LeakRequest constructs the HTTP request a tag's action emits for an
// auth event on pageURL. Cookie-channel actions return the cookie to set
// instead of carrying the data in the request (the jar attaches it).
func (t *Tag) LeakRequest(action LeakAction, pageURL string, p pii.Persona) (httpmodel.Request, []httpmodel.Cookie) {
	switch action.Method {
	case httpmodel.SurfaceURI:
		q := url.Values{}
		for _, typ := range action.PII {
			q.Set(paramFor(action, typ), leakValue(p, typ, action.Chain))
		}
		q.Set("v", "2")
		return httpmodel.Request{
			Method:    "GET",
			URL:       "https://" + t.Host + strings.TrimSuffix(t.Path, ".js") + "/collect?" + q.Encode(),
			Type:      t.Type,
			Initiator: t.URL(),
		}, nil
	case httpmodel.SurfaceBody:
		if action.JSONBody {
			var sb strings.Builder
			sb.WriteString("{")
			for i, typ := range action.PII {
				if i > 0 {
					sb.WriteString(",")
				}
				fmt.Fprintf(&sb, "%q:%q", paramFor(action, typ), leakValue(p, typ, action.Chain))
			}
			sb.WriteString(`,"event":"identify"}`)
			return httpmodel.Request{
				Method:    "POST",
				URL:       "https://" + t.Host + strings.TrimSuffix(t.Path, ".js") + "/events",
				Body:      []byte(sb.String()),
				BodyType:  "application/json",
				Type:      blocklist.TypeXHR,
				Initiator: t.URL(),
			}, nil
		}
		q := url.Values{}
		for _, typ := range action.PII {
			q.Set(paramFor(action, typ), leakValue(p, typ, action.Chain))
		}
		q.Set("event", "identify")
		return httpmodel.Request{
			Method:    "POST",
			URL:       "https://" + t.Host + strings.TrimSuffix(t.Path, ".js") + "/events",
			Body:      []byte(q.Encode()),
			BodyType:  "application/x-www-form-urlencoded",
			Type:      blocklist.TypeXHR,
			Initiator: t.URL(),
		}, nil
	case httpmodel.SurfaceCookie:
		// The action mints an identifying cookie on the tag's host;
		// the value travels on subsequent requests to that host.
		cookies := make([]httpmodel.Cookie, 0, len(action.PII))
		for _, typ := range action.PII {
			cookies = append(cookies, httpmodel.Cookie{
				Name:   paramFor(action, typ),
				Value:  leakValue(p, typ, action.Chain),
				Domain: t.Host,
			})
		}
		return httpmodel.Request{
			Method:    "GET",
			URL:       "https://" + t.Host + strings.TrimSuffix(t.Path, ".js") + "/b/ss/pageview",
			Type:      blocklist.TypeImage,
			Initiator: t.URL(),
		}, cookies
	default:
		panic(fmt.Sprintf("site: leak action with unsupported method %q", action.Method))
	}
}

// LoadRequest is the tag's benign resource fetch on a page view.
func (t *Tag) LoadRequest(pageURL string) httpmodel.Request {
	return httpmodel.Request{
		Method:    "GET",
		URL:       t.URL(),
		Type:      t.Type,
		Initiator: pageURL,
	}
}
