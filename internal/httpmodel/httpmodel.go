// Package httpmodel defines the HTTP traffic records the crawler collects
// (§3.2: requests with URL, headers and payload body; responses with URL
// and headers; cookies both set and sent) and the "leak surface"
// decomposition the detector scans (§4.1: referer header, request URI,
// cookie values, payload body).
//
// Surfaces play the role gopacket's decoding layers play for packets:
// a request decodes into a small set of typed byte regions, and the
// detector iterates them generically without knowing how each was
// extracted.
package httpmodel

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// ResourceType classifies a request the way blocklist $type options and
// browser policies need (script, image, xhr, ...).
type ResourceType string

// Resource types the simulator distinguishes.
const (
	TypeScript      ResourceType = "script"
	TypeImage       ResourceType = "image"
	TypeStylesheet  ResourceType = "stylesheet"
	TypeXHR         ResourceType = "xmlhttprequest"
	TypeSubdocument ResourceType = "subdocument"
	TypePing        ResourceType = "ping"
	TypeDocument    ResourceType = "document"
	TypeOther       ResourceType = "other"
)

// Cookie is a name/value pair bound to a host.
type Cookie struct {
	Name   string `json:"name"`
	Value  string `json:"value"`
	Domain string `json:"domain"`
	Path   string `json:"path,omitempty"`
}

// Request is one captured HTTP request.
type Request struct {
	// Method is GET or POST.
	Method string `json:"method"`
	// URL is the absolute request URL.
	URL string `json:"url"`
	// Headers holds request headers; Referer is the one the detector
	// cares about.
	Headers map[string]string `json:"headers,omitempty"`
	// Cookies are the cookies sent with the request.
	Cookies []Cookie `json:"cookies,omitempty"`
	// Body is the request payload, if any.
	Body []byte `json:"body,omitempty"`
	// BodyType is the payload content type ("application/x-www-form-
	// urlencoded", "application/json", "text/plain").
	BodyType string `json:"body_type,omitempty"`
	// Initiator is the URL of the resource that caused this request
	// (the document for top-level fetches); blocklist evaluation walks
	// initiator chains (§7.2).
	Initiator string `json:"initiator,omitempty"`
	// Type is the resource type ($type options, browser policies).
	Type ResourceType `json:"type,omitempty"`
}

// Response is one captured HTTP response.
type Response struct {
	Status     int               `json:"status"`
	Headers    map[string]string `json:"headers,omitempty"`
	SetCookies []Cookie          `json:"set_cookies,omitempty"`
}

// Phase names the authentication-flow step a record was captured in
// (§3.2's browsing procedure).
type Phase string

// Crawl phases, in flow order.
const (
	PhaseHomepage Phase = "homepage"
	PhaseSignup   Phase = "signup"
	PhaseConfirm  Phase = "confirm"
	PhaseSignin   Phase = "signin"
	PhaseReload   Phase = "reload"
	PhaseSubpage  Phase = "subpage"
)

// Record pairs a request with its response and crawl context.
type Record struct {
	// Seq orders records within a crawl.
	Seq int `json:"seq"`
	// Page is the URL of the first-party page being visited.
	Page string `json:"page"`
	// Phase is the flow step.
	Phase    Phase    `json:"phase"`
	Request  Request  `json:"request"`
	Response Response `json:"response"`
}

// Host returns the request's host (no port), or "" when the URL does not
// parse.
func (r *Request) Host() string {
	u, err := url.Parse(r.URL)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// Referer returns the Referer header, if present. The canonical
// spelling wins; failing that, the smallest key that matches it
// case-insensitively, so a capture holding several spellings (a HAR
// with both "Referer" and "referer") gives every caller one answer.
func (r *Request) Referer() string {
	if v, ok := r.Headers["Referer"]; ok {
		return v
	}
	var key string // no matching key is empty
	for k := range r.Headers {
		if strings.EqualFold(k, "Referer") && (key == "" || k < key) {
			key = k
		}
	}
	if key == "" {
		return ""
	}
	return r.Headers[key]
}

// Param is one decoded key/value pair.
type Param struct {
	Key   string
	Value string
}

func sortedParams(vs url.Values) []Param {
	keys := make([]string, 0, len(vs))
	for k := range vs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Param
	for _, k := range keys {
		for _, v := range vs[k] {
			out = append(out, Param{Key: k, Value: v})
		}
	}
	return out
}

// BodyParams decodes the request payload into parameters: form bodies
// yield their fields; JSON bodies yield flattened string leaves with
// dotted-path keys; other types yield nothing.
func (r *Request) BodyParams() []Param {
	switch {
	case strings.HasPrefix(r.BodyType, "application/x-www-form-urlencoded"):
		vs, err := url.ParseQuery(string(r.Body))
		if err != nil {
			return nil
		}
		return sortedParams(vs)
	case strings.HasPrefix(r.BodyType, "application/json"):
		var v interface{}
		if err := json.Unmarshal(r.Body, &v); err != nil {
			return nil
		}
		var out []Param
		flattenJSON("", v, &out)
		sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
		return out
	default:
		return nil
	}
}

func flattenJSON(prefix string, v interface{}, out *[]Param) {
	switch t := v.(type) {
	case map[string]interface{}:
		for k, child := range t {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flattenJSON(key, child, out)
		}
	case []interface{}:
		for i, child := range t {
			flattenJSON(fmt.Sprintf("%s[%d]", prefix, i), child, out)
		}
	case string:
		*out = append(*out, Param{Key: prefix, Value: t})
	case float64:
		*out = append(*out, Param{Key: prefix, Value: trimFloat(t)})
	case bool:
		*out = append(*out, Param{Key: prefix, Value: fmt.Sprintf("%v", t)})
	}
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%v", f)
	return s
}
