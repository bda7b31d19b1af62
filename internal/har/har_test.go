package har

import (
	"strings"
	"testing"

	"piileak/internal/detect"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
)

const sampleHAR = `{
  "log": {
    "version": "1.2",
    "pages": [{"id": "page_1", "title": "Shop"}],
    "entries": [
      {
        "pageref": "page_1",
        "startedDateTime": "2021-05-10T12:00:00.000Z",
        "request": {
          "method": "get",
          "url": "https://www.shop.example/account/signup",
          "headers": [{"name": "User-Agent", "value": "Firefox/88"}],
          "cookies": []
        },
        "response": {
          "status": 200,
          "headers": [{"name": "Content-Type", "value": "text/html"}],
          "cookies": [{"name": "session", "value": "s1", "domain": "www.shop.example"}]
        }
      },
      {
        "pageref": "page_1",
        "startedDateTime": "2021-05-10T12:00:02.000Z",
        "_initiator": {"type": "script", "url": "https://www.facebook.com/en_US/fbevents.js"},
        "request": {
          "method": "GET",
          "url": "https://www.facebook.com/tr/?udff%5Bem%5D=HASHEDEMAIL&v=2",
          "headers": [{"name": "Referer", "value": "https://www.shop.example/account/signup"}],
          "cookies": [{"name": "fr", "value": "xyz", "domain": ".facebook.com"}]
        },
        "response": {"status": 200, "headers": [], "cookies": []}
      },
      {
        "pageref": "page_1",
        "startedDateTime": "2021-05-10T12:00:01.000Z",
        "request": {
          "method": "POST",
          "url": "https://api.tracker.example/events",
          "headers": [],
          "cookies": [],
          "postData": {"mimeType": "application/json", "text": "{\"email\":\"PLAINEMAIL\"}"}
        },
        "response": {"status": 204, "headers": [], "cookies": []}
      }
    ]
  }
}`

func TestParseSample(t *testing.T) {
	recs, err := Parse(strings.NewReader(sampleHAR))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	// Entries sorted by start time: signup, POST, pixel.
	if recs[0].Request.URL != "https://www.shop.example/account/signup" {
		t.Errorf("first record = %s", recs[0].Request.URL)
	}
	if recs[1].Request.Method != "POST" {
		t.Errorf("second record method = %s", recs[1].Request.Method)
	}
	if recs[0].Request.Method != "GET" {
		t.Errorf("method not upper-cased: %s", recs[0].Request.Method)
	}
	// Page resolution via pageref.
	for _, r := range recs {
		if r.Page != "https://www.shop.example/account/signup" {
			t.Errorf("page = %s", r.Page)
		}
	}
	// Initiator carried over.
	if recs[2].Request.Initiator != "https://www.facebook.com/en_US/fbevents.js" {
		t.Errorf("initiator = %s", recs[2].Request.Initiator)
	}
	// Cookies and body.
	if len(recs[2].Request.Cookies) != 1 || recs[2].Request.Cookies[0].Name != "fr" {
		t.Errorf("cookies = %+v", recs[2].Request.Cookies)
	}
	if recs[1].Request.BodyType != "application/json" || len(recs[1].Request.Body) == 0 {
		t.Errorf("body = %+v", recs[1].Request)
	}
	if recs[0].Response.SetCookies[0].Name != "session" {
		t.Errorf("set-cookies = %+v", recs[0].Response.SetCookies)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("{broken")); err == nil {
		t.Error("malformed JSON accepted")
	}
	noURL := `{"log":{"entries":[{"request":{"method":"GET","url":""},"response":{"status":200}}]}}`
	if _, err := Parse(strings.NewReader(noURL)); err == nil {
		t.Error("entry without URL accepted")
	}
}

func TestGuessType(t *testing.T) {
	cases := map[string]httpmodel.ResourceType{
		"https://x/app.js":        httpmodel.TypeScript,
		"https://x/style.css":     httpmodel.TypeStylesheet,
		"https://x/pixel.gif":     httpmodel.TypeImage,
		"https://x/path/":         httpmodel.TypeDocument,
		"https://x/account":       httpmodel.TypeDocument,
		"https://x/file.woff2":    httpmodel.TypeOther,
		"https://x/app.js?v=1234": httpmodel.TypeScript,
	}
	for u, want := range cases {
		e := Entry{Request: Request{URL: u}}
		if got := guessType(&e); got != want {
			t.Errorf("guessType(%s) = %s, want %s", u, got, want)
		}
	}
	post := Entry{Request: Request{URL: "https://x/collect", PostData: &PostData{}}}
	if got := guessType(&post); got != httpmodel.TypeXHR {
		t.Errorf("POST type = %s", got)
	}
}

func TestPostDataParams(t *testing.T) {
	harDoc := `{"log":{"entries":[{
      "startedDateTime":"2021-05-10T12:00:00Z",
      "request":{"method":"POST","url":"https://t.example/e","headers":[],"cookies":[],
        "postData":{"mimeType":"","params":[{"name":"em","value":"x@y.z"},{"name":"v","value":"2"}]}},
      "response":{"status":200,"headers":[],"cookies":[]}}]}}`
	recs, err := Parse(strings.NewReader(harDoc))
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Request.Body) != "em=x@y.z&v=2" {
		t.Errorf("body = %q", recs[0].Request.Body)
	}
	if recs[0].Request.BodyType != "application/x-www-form-urlencoded" {
		t.Errorf("body type = %q", recs[0].Request.BodyType)
	}
}

// TestHARFeedsDetector is the integration the package exists for: a HAR
// capture with a real hashed-email leak runs through the §4 detector.
func TestHARFeedsDetector(t *testing.T) {
	p := pii.Default()
	sha := string(pii.MustApplyChain(p.Email, []string{"sha256"}))
	harDoc := strings.Replace(sampleHAR, "HASHEDEMAIL", sha, 1)

	recs, err := Parse(strings.NewReader(harDoc))
	if err != nil {
		t.Fatal(err)
	}
	eng := detect.MustNewEngine(p, nil, detect.Config{
		Candidates: pii.CandidateConfig{MaxDepth: 1, Transforms: []string{"sha256"}},
	})
	leaks := eng.DetectSite("shop.example", recs)
	if len(leaks) != 1 {
		t.Fatalf("leaks = %+v", leaks)
	}
	if leaks[0].Receiver != "facebook.com" || leaks[0].Param != "udff[em]" {
		t.Errorf("leak = %+v", leaks[0])
	}
}

func TestParseFileFixture(t *testing.T) {
	recs, err := ParseFile("testdata/capture.har")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1].Request.Host() != "ct.pinterest.com" {
		t.Errorf("host = %s", recs[1].Request.Host())
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("testdata/nope.har"); err == nil {
		t.Error("missing file accepted")
	}
}
