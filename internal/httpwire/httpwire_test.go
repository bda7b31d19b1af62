package httpwire

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
	"piileak/internal/webgen"
)

// parseWithStdlib is the oracle: net/http must accept our bytes.
func parseWithStdlib(t *testing.T, raw []byte) *http.Request {
	t.Helper()
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("net/http rejected our request:\n%s\nerror: %v", raw, err)
	}
	return req
}

func TestRequestGET(t *testing.T) {
	r := httpmodel.Request{
		Method:  "GET",
		URL:     "https://ct.pinterest.com/v3/collect?pd=abc&v=2",
		Headers: map[string]string{"Referer": "https://www.shop.example/"},
		Cookies: []httpmodel.Cookie{{Name: "sid", Value: "s1", Domain: "ct.pinterest.com"}},
	}
	raw, err := Request(&r)
	if err != nil {
		t.Fatal(err)
	}
	req := parseWithStdlib(t, raw)
	if req.Method != "GET" || req.Host != "ct.pinterest.com" {
		t.Errorf("parsed = %s %s", req.Method, req.Host)
	}
	if req.URL.Query().Get("pd") != "abc" {
		t.Errorf("query = %s", req.URL.RawQuery)
	}
	if req.Header.Get("Referer") != "https://www.shop.example/" {
		t.Errorf("referer = %q", req.Header.Get("Referer"))
	}
	c, err := req.Cookie("sid")
	if err != nil || c.Value != "s1" {
		t.Errorf("cookie = %v, %v", c, err)
	}
}

func TestRequestPOSTBody(t *testing.T) {
	r := httpmodel.Request{
		Method:   "POST",
		URL:      "https://api.bluecore.com/events",
		Body:     []byte(`{"data":"x"}`),
		BodyType: "application/json",
	}
	raw, err := Request(&r)
	if err != nil {
		t.Fatal(err)
	}
	req := parseWithStdlib(t, raw)
	body, _ := io.ReadAll(req.Body)
	if string(body) != `{"data":"x"}` {
		t.Errorf("body = %q", body)
	}
	if req.Header.Get("Content-Type") != "application/json" {
		t.Errorf("content-type = %q", req.Header.Get("Content-Type"))
	}
	if req.ContentLength != int64(len(body)) {
		t.Errorf("content-length = %d", req.ContentLength)
	}
}

func TestRequestHeaderInjectionNeutralized(t *testing.T) {
	r := httpmodel.Request{
		Method:  "GET",
		URL:     "https://t.example/p",
		Headers: map[string]string{"X-Evil": "a\r\nInjected: yes"},
	}
	raw, err := Request(&r)
	if err != nil {
		t.Fatal(err)
	}
	req := parseWithStdlib(t, raw)
	if req.Header.Get("Injected") != "" {
		t.Error("header injection succeeded")
	}
}

func TestRequestErrors(t *testing.T) {
	if _, err := Request(&httpmodel.Request{URL: "::bad"}); err == nil {
		t.Error("unparseable URL accepted")
	}
	if _, err := Request(&httpmodel.Request{URL: "/relative/only"}); err == nil {
		t.Error("hostless URL accepted")
	}
}

func TestResponse(t *testing.T) {
	resp := httpmodel.Response{
		Status:  302,
		Headers: map[string]string{"Location": "/welcome"},
		SetCookies: []httpmodel.Cookie{
			{Name: "session", Value: "tok", Domain: "www.shop.example"},
		},
	}
	raw := Response(&resp)
	parsed, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), nil)
	if err != nil {
		t.Fatalf("net/http rejected our response:\n%s\nerror: %v", raw, err)
	}
	defer parsed.Body.Close()
	if parsed.StatusCode != 302 {
		t.Errorf("status = %d", parsed.StatusCode)
	}
	if parsed.Header.Get("Location") != "/welcome" {
		t.Errorf("location = %q", parsed.Header.Get("Location"))
	}
	cookies := parsed.Cookies()
	if len(cookies) != 1 || cookies[0].Name != "session" {
		t.Errorf("cookies = %+v", cookies)
	}
}

func TestResponseZeroStatusDefaults(t *testing.T) {
	raw := Response(&httpmodel.Response{})
	if !strings.HasPrefix(string(raw), "HTTP/1.1 200 OK\r\n") {
		t.Errorf("status line = %q", strings.SplitN(string(raw), "\r\n", 2)[0])
	}
}

// TestWholeCrawlSerializes runs every record of a small crawl through
// the serializer and the stdlib oracle.
func TestWholeCrawlSerializes(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(91))
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range ds.Crawls {
		for i := range c.Records {
			raw, err := Request(&c.Records[i].Request)
			if err != nil {
				t.Fatalf("%s record %d: %v", c.Domain, i, err)
			}
			parseWithStdlib(t, raw)
			respRaw := Response(&c.Records[i].Response)
			if _, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(respRaw)), nil); err != nil {
				t.Fatalf("%s record %d response: %v", c.Domain, i, err)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no records serialized")
	}
}
