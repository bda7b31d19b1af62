package site

import (
	"net/url"
	"strings"
	"testing"

	"piileak/internal/blocklist"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
)

func testSite() *Site {
	return &Site{
		Domain:    "urbanmarket.com",
		Rank:      120,
		Collected: []pii.Type{pii.TypeEmail, pii.TypeName, pii.TypeGender},
		Policy:    PolicyNotSpecific,
		Tags: []Tag{
			{
				Receiver:   "facebook.com",
				Host:       "www.facebook.com",
				Path:       "/en_US/fbevents.js",
				Type:       blocklist.TypeScript,
				OnSubpages: true,
				Actions: []LeakAction{{
					Method: httpmodel.SurfaceURI,
					Param:  "udff[em]",
					Chain:  []string{"sha256"},
					PII:    []pii.Type{pii.TypeEmail},
				}},
			},
			{
				Receiver: "cdnstatic.net",
				Host:     "cdn.cdnstatic.net",
				Path:     "/lib.js",
				Type:     blocklist.TypeScript,
			},
		},
	}
}

func TestHostAndURLs(t *testing.T) {
	s := testSite()
	if s.Host() != "www.urbanmarket.com" {
		t.Errorf("Host = %q", s.Host())
	}
	if s.BaseURL() != "https://www.urbanmarket.com/" {
		t.Errorf("BaseURL = %q", s.BaseURL())
	}
	if got := s.PageURL("/product/42"); got != "https://www.urbanmarket.com/product/42" {
		t.Errorf("PageURL = %q", got)
	}
}

func TestFormFields(t *testing.T) {
	p := pii.Default()
	s := testSite()
	fields := s.FormFields(p)
	byName := map[string]string{}
	for _, f := range fields {
		byName[f.Name] = f.Value
	}
	if byName["email"] != p.Email {
		t.Errorf("email field = %q", byName["email"])
	}
	if byName["name"] != p.FullName() {
		t.Errorf("name field = %q", byName["name"])
	}
	if byName["gender"] != p.Gender {
		t.Errorf("gender field = %q", byName["gender"])
	}
	if _, ok := byName["password"]; !ok {
		t.Error("no password field")
	}
	if _, ok := byName["phone"]; ok {
		t.Error("uncollected phone field present")
	}
}

func TestSignupActionURLPostVsGet(t *testing.T) {
	p := pii.Default()
	s := testSite()
	if got := s.SignupActionURL(p); strings.Contains(got, "?") {
		t.Errorf("POST form action carries query: %q", got)
	}
	s.SignupGET = true
	got := s.SignupActionURL(p)
	u, err := url.Parse(got)
	if err != nil {
		t.Fatal(err)
	}
	if u.Query().Get("email") != p.Email {
		t.Errorf("GET form action missing email: %q", got)
	}
}

func TestTagsOnSubpage(t *testing.T) {
	s := testSite()
	var auth, sub []string
	for i := range s.Tags {
		if s.Tags[i].LoadsOn(false) {
			auth = append(auth, s.Tags[i].Receiver)
		}
		if s.Tags[i].LoadsOn(true) {
			sub = append(sub, s.Tags[i].Receiver)
		}
	}
	if len(auth) != 2 {
		t.Errorf("auth-page tags = %v, want 2", auth)
	}
	if len(sub) != 1 || sub[0] != "facebook.com" {
		t.Errorf("subpage tags = %v", sub)
	}
}

func TestLeakRequestURI(t *testing.T) {
	p := pii.Default()
	s := testSite()
	tag := s.Tags[0]
	req, cookies := tag.LeakRequest(tag.Actions[0], s.BaseURL(), p)
	if cookies != nil {
		t.Errorf("URI action returned cookies: %+v", cookies)
	}
	if req.Method != "GET" {
		t.Errorf("method = %s", req.Method)
	}
	u, err := url.Parse(req.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := string(pii.MustApplyChain(p.Email, []string{"sha256"}))
	if got := u.Query().Get("udff[em]"); got != want {
		t.Errorf("udff[em] = %q, want %q", got, want)
	}
	if u.Hostname() != "www.facebook.com" {
		t.Errorf("host = %q", u.Hostname())
	}
	if req.Initiator != tag.URL() {
		t.Errorf("initiator = %q", req.Initiator)
	}
}

func TestLeakRequestPayloadForm(t *testing.T) {
	p := pii.Default()
	action := LeakAction{
		Method: httpmodel.SurfaceBody,
		Param:  "u_hem",
		Chain:  []string{"sha256"},
		PII:    []pii.Type{pii.TypeEmail},
	}
	tag := Tag{Receiver: "snapchat.com", Host: "tr.snapchat.com", Path: "/sc.js", Type: blocklist.TypeScript}
	req, _ := tag.LeakRequest(action, "https://x/", p)
	if req.Method != "POST" || req.BodyType != "application/x-www-form-urlencoded" {
		t.Fatalf("req = %+v", req)
	}
	vs, err := url.ParseQuery(string(req.Body))
	if err != nil {
		t.Fatal(err)
	}
	want := string(pii.MustApplyChain(p.Email, []string{"sha256"}))
	if vs.Get("u_hem") != want {
		t.Errorf("u_hem = %q", vs.Get("u_hem"))
	}
}

func TestLeakRequestPayloadJSON(t *testing.T) {
	p := pii.Default()
	action := LeakAction{
		Method:   httpmodel.SurfaceBody,
		Param:    "data",
		Chain:    []string{"base64"},
		PII:      []pii.Type{pii.TypeEmail},
		JSONBody: true,
	}
	tag := Tag{Receiver: "bluecore.com", Host: "api.bluecore.com", Path: "/bc.js", Type: blocklist.TypeScript}
	req, _ := tag.LeakRequest(action, "https://x/", p)
	if req.BodyType != "application/json" {
		t.Fatalf("body type = %s", req.BodyType)
	}
	params := req.BodyParams()
	found := false
	want := string(pii.MustApplyChain(p.Email, []string{"base64"}))
	for _, pr := range params {
		if pr.Key == "data" && pr.Value == want {
			found = true
		}
	}
	if !found {
		t.Errorf("JSON body params = %+v", params)
	}
}

func TestLeakRequestCookie(t *testing.T) {
	p := pii.Default()
	action := LeakAction{
		Method: httpmodel.SurfaceCookie,
		Param:  "s_vi",
		Chain:  []string{"sha256"},
		PII:    []pii.Type{pii.TypeEmail},
	}
	tag := Tag{Receiver: "omtrdc.net", Host: "smetrics.urbanmarket.com", Path: "/s_code.js", Type: blocklist.TypeScript}
	req, cookies := tag.LeakRequest(action, "https://x/", p)
	if len(cookies) != 1 {
		t.Fatalf("cookies = %+v", cookies)
	}
	want := string(pii.MustApplyChain(p.Email, []string{"sha256"}))
	if cookies[0].Name != "s_vi" || cookies[0].Value != want {
		t.Errorf("cookie = %+v", cookies[0])
	}
	if cookies[0].Domain != "smetrics.urbanmarket.com" {
		t.Errorf("cookie domain = %q", cookies[0].Domain)
	}
	if strings.Contains(req.URL, want) {
		t.Error("cookie-channel request carries the value in the URL")
	}
}

func TestLeakRequestMultiPII(t *testing.T) {
	p := pii.Default()
	action := LeakAction{
		Method: httpmodel.SurfaceURI,
		Param:  "ud",
		Chain:  nil,
		PII:    []pii.Type{pii.TypeEmail, pii.TypeName},
	}
	tag := Tag{Receiver: "t.net", Host: "px.t.net", Path: "/t.js", Type: blocklist.TypeImage}
	req, _ := tag.LeakRequest(action, "https://x/", p)
	u, _ := url.Parse(req.URL)
	if u.Query().Get("ud") != p.Email {
		t.Errorf("ud = %q", u.Query().Get("ud"))
	}
	if u.Query().Get("ud_n") != p.FullName() {
		t.Errorf("ud_n = %q", u.Query().Get("ud_n"))
	}
}

func TestLoadRequest(t *testing.T) {
	s := testSite()
	req := s.Tags[0].LoadRequest(s.BaseURL())
	if req.URL != "https://www.facebook.com/en_US/fbevents.js" {
		t.Errorf("URL = %q", req.URL)
	}
	if req.Initiator != s.BaseURL() {
		t.Errorf("initiator = %q", req.Initiator)
	}
	if req.Type != blocklist.TypeScript {
		t.Errorf("type = %q", req.Type)
	}
}

func TestLeakRequestUnsupportedMethodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for referer-method action")
		}
	}()
	tag := Tag{Receiver: "t.net", Host: "t.net", Path: "/x.js"}
	tag.LeakRequest(LeakAction{Method: httpmodel.SurfaceReferer}, "https://x/", pii.Default())
}

func TestFieldNamingSchemes(t *testing.T) {
	s := testSite()
	for scheme, want := range map[int]string{0: "email", 1: "user_email", 2: "loginEmail", 3: "field_a7"} {
		s.FieldNaming = scheme
		if got := s.FieldName(pii.TypeEmail); got != want {
			t.Errorf("scheme %d: FieldName(email) = %q, want %q", scheme, got, want)
		}
	}
	// Out-of-range schemes fall back to plain.
	s.FieldNaming = 99
	if got := s.FieldName(pii.TypeEmail); got != "email" {
		t.Errorf("fallback FieldName = %q", got)
	}
}

func TestRequiredInputs(t *testing.T) {
	s := testSite() // collects email, name, gender
	s.FieldNaming = 1
	got := s.RequiredInputs()
	want := []string{"user_email", "full_name", "user_gender", "password"}
	if len(got) != len(want) {
		t.Fatalf("RequiredInputs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("RequiredInputs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFormFieldsFollowNamingScheme(t *testing.T) {
	p := pii.Default()
	s := testSite()
	s.FieldNaming = 3
	for _, f := range s.FormFields(p) {
		if f.Name == "email" {
			t.Error("exotic scheme leaked a plain field name")
		}
	}
}
