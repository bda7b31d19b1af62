package pcap

import (
	"bytes"
	"testing"

	"piileak/internal/httpmodel"
	"piileak/internal/httpwire"
)

// FuzzPcapParse hardens the capture reader. Parse never panics on
// arbitrary bytes. And a capture the writer makes of one exchange — a
// request of the fuzzed method, host, path and body, and its response —
// parses back, and reassembles to exactly two streams: the client's
// holds the httpwire bytes of the request, the server's those of the
// response.
func FuzzPcapParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, method, host, path string, body []byte) {
		if packets, err := Parse(bytes.NewReader(data)); err != nil && packets != nil {
			t.Fatalf("Parse returned %d packets beside its error %v", len(packets), err)
		}

		rec := httpmodel.Record{
			Request:  httpmodel.Request{Method: method, URL: "https://" + host + path, Body: body},
			Response: httpmodel.Response{Status: 200},
		}
		wantReq, err := httpwire.Request(&rec.Request)
		if err != nil {
			return // not a request httpwire can write, so neither can WriteExchange
		}
		wantResp := httpwire.Response(&rec.Response)
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteExchange(&rec); err != nil {
			t.Fatal(err)
		}
		packets, err := Parse(&buf)
		if err != nil {
			t.Fatalf("the writer's capture does not parse: %v", err)
		}
		streams := Reassemble(packets)
		if len(streams) != 2 {
			t.Fatalf("%d streams, want the request's and the response's", len(streams))
		}
		for k, got := range streams {
			want, dir := wantReq, "request"
			if k.DstPort != 80 {
				want, dir = wantResp, "response"
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s stream:\n got %q\nwant %q", dir, got, want)
			}
		}
	})
}
