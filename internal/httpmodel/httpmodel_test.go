package httpmodel

import (
	"bytes"
	"encoding/json"
	"net/url"
	"reflect"
	"testing"
)

func TestHost(t *testing.T) {
	r := Request{URL: "https://Pixel.Tracker.NET:443/p?x=1"}
	if got := r.Host(); got != "pixel.tracker.net" {
		t.Errorf("Host = %q", got)
	}
	bad := Request{URL: "::not a url"}
	if got := bad.Host(); got != "" {
		t.Errorf("Host(bad) = %q", got)
	}
}

func TestRefererCaseInsensitive(t *testing.T) {
	r := Request{Headers: map[string]string{"referer": "https://site.com/signup"}}
	if got := r.Referer(); got != "https://site.com/signup" {
		t.Errorf("Referer = %q", got)
	}
	// Without the canonical spelling the smallest matching key wins,
	// on every call.
	r.Headers = map[string]string{"referer": "https://a.com/", "REFERER": "https://b.com/", "Accept": "*/*"}
	for range 100 {
		if got := r.Referer(); got != "https://b.com/" {
			t.Fatalf("Referer = %q, want the REFERER value", got)
		}
	}
	if got := (&Request{Headers: map[string]string{"Accept": "*/*", "": "https://c.com/"}}).Referer(); got != "" {
		t.Errorf("Referer without the header = %q", got)
	}
}

func TestQueryParamsSortedAndDecoded(t *testing.T) {
	u, err := url.Parse("https://t.net/p?b=2&a=foo%40mydom.com&b=1")
	if err != nil {
		t.Fatal(err)
	}
	got := sortedParams(u.Query())
	want := []Param{{"a", "foo@mydom.com"}, {"b", "2"}, {"b", "1"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sortedParams = %+v, want %+v", got, want)
	}
}

func TestBodyParamsForm(t *testing.T) {
	r := Request{
		Body:     []byte("email=foo%40mydom.com&name=Mariko+Tanaka"),
		BodyType: "application/x-www-form-urlencoded",
	}
	got := r.BodyParams()
	want := []Param{{"email", "foo@mydom.com"}, {"name", "Mariko Tanaka"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BodyParams = %+v, want %+v", got, want)
	}
}

func TestBodyParamsJSONNested(t *testing.T) {
	r := Request{
		Body:     []byte(`{"user":{"email":"foo@mydom.com","tags":["a","b"],"active":true,"n":3}}`),
		BodyType: "application/json",
	}
	got := r.BodyParams()
	byKey := map[string]string{}
	for _, p := range got {
		byKey[p.Key] = p.Value
	}
	if byKey["user.email"] != "foo@mydom.com" {
		t.Errorf("user.email = %q", byKey["user.email"])
	}
	if byKey["user.tags[0]"] != "a" || byKey["user.tags[1]"] != "b" {
		t.Errorf("tags = %v", byKey)
	}
	if byKey["user.active"] != "true" || byKey["user.n"] != "3" {
		t.Errorf("scalars = %v", byKey)
	}
}

func TestBodyParamsUnknownType(t *testing.T) {
	r := Request{Body: []byte("opaque"), BodyType: "application/octet-stream"}
	if got := r.BodyParams(); got != nil {
		t.Errorf("BodyParams = %+v, want nil", got)
	}
}

func TestBodyParamsMalformed(t *testing.T) {
	r := Request{Body: []byte("{broken"), BodyType: "application/json"}
	if got := r.BodyParams(); got != nil {
		t.Errorf("malformed JSON BodyParams = %+v", got)
	}
	r2 := Request{Body: []byte("%zz=1;;;=%"), BodyType: "application/x-www-form-urlencoded"}
	if got := r2.BodyParams(); got != nil {
		t.Errorf("malformed form BodyParams = %+v", got)
	}
}

func surfaceKinds(ss []Surface) map[SurfaceKind]int {
	got := map[SurfaceKind]int{}
	for _, s := range ss {
		got[s.Kind]++
	}
	return got
}

func TestSurfacesFourChannels(t *testing.T) {
	r := Request{
		Method: "POST",
		URL:    "https://tracker.net/collect?ud=abc123hash&v=2",
		Headers: map[string]string{
			"Referer": "https://site.com/signup?email=foo%40mydom.com",
		},
		Cookies:  []Cookie{{Name: "uid", Value: "foo@mydom.com", Domain: "tracker.net"}},
		Body:     []byte("em=foo%40mydom.com"),
		BodyType: "application/x-www-form-urlencoded",
	}
	ss := Surfaces(&r)
	kinds := surfaceKinds(ss)
	for _, k := range AllSurfaceKinds {
		if kinds[k] == 0 {
			t.Errorf("no %s surface extracted", k)
		}
	}

	// The decoded referer must expose the unescaped email.
	found := false
	for _, s := range ss {
		if s.Kind == SurfaceReferer && bytes.Contains(s.Data, []byte("foo@mydom.com")) {
			found = true
		}
	}
	if !found {
		t.Error("decoded referer surface missing the unescaped email")
	}

	// Named URI surface for parameter "ud".
	found = false
	for _, s := range ss {
		if s.Kind == SurfaceURI && s.Name == "ud" && string(s.Data) == "abc123hash" {
			found = true
		}
	}
	if !found {
		t.Error("named uri surface for ud missing")
	}
}

func TestSurfacesMinimalRequest(t *testing.T) {
	r := Request{Method: "GET", URL: "https://cdn.site.com/app.js"}
	ss := Surfaces(&r)
	kinds := surfaceKinds(ss)
	if kinds[SurfaceReferer] != 0 || kinds[SurfaceCookie] != 0 || kinds[SurfaceBody] != 0 {
		t.Errorf("unexpected surfaces for bare GET: %v", kinds)
	}
	// Path-only URI surface.
	if kinds[SurfaceURI] != 1 {
		t.Errorf("URI surfaces = %d, want 1 (path)", kinds[SurfaceURI])
	}
}

func TestSurfacesPercentEncodedQueryDecoded(t *testing.T) {
	raw := "em=" + url.QueryEscape("foo@mydom.com")
	r := Request{Method: "GET", URL: "https://t.net/p?" + raw}
	ss := Surfaces(&r)
	found := false
	for _, s := range ss {
		if s.Kind == SurfaceURI && bytes.Contains(s.Data, []byte("foo@mydom.com")) {
			found = true
		}
	}
	if !found {
		t.Error("percent-encoded email not exposed on any URI surface")
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	rec := Record{
		Seq:   7,
		Page:  "https://shop.example.com/",
		Phase: PhaseSignup,
		Request: Request{
			Method:   "POST",
			URL:      "https://shop.example.com/signup",
			Headers:  map[string]string{"Referer": "https://shop.example.com/"},
			Cookies:  []Cookie{{Name: "session", Value: "s1", Domain: "shop.example.com"}},
			Body:     []byte("email=x"),
			BodyType: "application/x-www-form-urlencoded",
		},
		Response: Response{
			Status:     302,
			Headers:    map[string]string{"Location": "/welcome"},
			SetCookies: []Cookie{{Name: "auth", Value: "tok", Domain: "shop.example.com"}},
		},
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", rec, back)
	}
}
