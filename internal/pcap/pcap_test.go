package pcap

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
	"piileak/internal/httpwire"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

func sampleRecord() httpmodel.Record {
	return httpmodel.Record{
		Seq:   1,
		Page:  "https://www.shop.example/",
		Phase: httpmodel.PhaseSignup,
		Request: httpmodel.Request{
			Method:  "GET",
			URL:     "https://ct.pinterest.com/v3/collect?pd=deadbeef&v=2",
			Headers: map[string]string{"Referer": "https://www.shop.example/"},
		},
		Response: httpmodel.Response{Status: 200},
	}
}

func TestWriteExchangeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	rec := sampleRecord()
	if err := pw.WriteExchange(&rec); err != nil {
		t.Fatal(err)
	}

	packets, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// SYN, SYN-ACK, ACK, request, ACK, response, ACK, FIN, FIN, ACK.
	if len(packets) != 10 {
		t.Fatalf("packets = %d, want 10", len(packets))
	}
	if !packets[0].SYN() || packets[0].ACK() {
		t.Error("first packet is not a bare SYN")
	}
	if !packets[1].SYN() || !packets[1].ACK() {
		t.Error("second packet is not SYN/ACK")
	}
	if !packets[len(packets)-3].FIN() {
		t.Error("teardown missing")
	}

	// Timestamps advance monotonically.
	for i := 1; i < len(packets); i++ {
		if !packets[i].Time.After(packets[i-1].Time) {
			t.Fatalf("packet %d time did not advance", i)
		}
	}

	// Reassembled client stream equals the wire request; the stdlib
	// parses both directions.
	streams := Reassemble(packets)
	var clientStream, serverStream []byte
	for k, data := range streams {
		if k.DstPort == 80 {
			clientStream = data
		} else {
			serverStream = data
		}
	}
	wantReq, err := httpwire.Request(&rec.Request)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clientStream, wantReq) {
		t.Errorf("client stream mismatch:\n%q\nwant\n%q", clientStream, wantReq)
	}
	if _, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(clientStream))); err != nil {
		t.Errorf("reassembled request unparseable: %v", err)
	}
	if _, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(serverStream)), nil); err != nil {
		t.Errorf("reassembled response unparseable: %v", err)
	}
}

func TestLargeBodySegmentation(t *testing.T) {
	rec := sampleRecord()
	rec.Request.Method = "POST"
	rec.Request.URL = "https://api.bluecore.com/events"
	rec.Request.Body = bytes.Repeat([]byte("x"), 4*mss+37)
	rec.Request.BodyType = "application/octet-stream"

	var buf bytes.Buffer
	pw := NewWriter(&buf)
	if err := pw.WriteExchange(&rec); err != nil {
		t.Fatal(err)
	}
	packets, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Payload must be MSS-bounded and sequence numbers contiguous.
	var prevEnd uint32
	started := false
	for i := range packets {
		p := &packets[i]
		if len(p.Payload) > mss {
			t.Fatalf("segment %d exceeds MSS: %d", i, len(p.Payload))
		}
		if p.DstPort == 80 && len(p.Payload) > 0 {
			if started && p.Seq != prevEnd {
				t.Fatalf("sequence gap: %d != %d", p.Seq, prevEnd)
			}
			prevEnd = p.Seq + uint32(len(p.Payload))
			started = true
		}
	}
	streams := Reassemble(packets)
	for k, data := range streams {
		if k.DstPort == 80 && !bytes.Contains(data, rec.Request.Body[:64]) {
			t.Error("reassembled request lost the body")
		}
	}
}

func TestServerIPDeterministicAndInBenchmarkRange(t *testing.T) {
	a := serverIPFor("ct.pinterest.com")
	b := serverIPFor("ct.pinterest.com")
	c := serverIPFor("www.facebook.com")
	if a != b {
		t.Error("server IP not deterministic")
	}
	if a == c {
		t.Error("distinct hosts share an IP (fnv collision in test set)")
	}
	for _, ip := range [][4]byte{a, c} {
		if ip[0] != 198 || ip[1] < 18 || ip[1] > 19 {
			t.Errorf("IP %v outside 198.18.0.0/15", ip)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(strings.NewReader("not a pcap")); err == nil {
		t.Error("garbage accepted")
	}
	// Corrupt a checksum: flip one payload byte.
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	rec := sampleRecord()
	if err := pw.WriteExchange(&rec); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF
	if _, err := Parse(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted capture accepted (checksum not verified)")
	}
}

func TestExportCrawlDataset(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(97))
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{Source: site.Slice(eco.SenderSites)})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	pw := NewWriter(&buf)
	total := 0
	for _, c := range ds.Crawls {
		if err := pw.WriteRecords(c.Records); err != nil {
			t.Fatal(err)
		}
		total += len(c.Records)
	}
	packets, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Ten packets per exchange minimum.
	if len(packets) < total*10 {
		t.Errorf("packets = %d for %d exchanges", len(packets), total)
	}
	// Every reassembled client stream parses as HTTP.
	n := 0
	for k, data := range Reassemble(packets) {
		if k.DstPort != 80 {
			continue
		}
		if _, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data))); err != nil {
			t.Fatalf("stream %v unparseable: %v", k, err)
		}
		n++
	}
	if n != total {
		t.Errorf("client streams = %d, want %d", n, total)
	}
}

func BenchmarkWriteExchange(b *testing.B) {
	rec := sampleRecord()
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := pw.WriteExchange(&rec); err != nil {
			b.Fatal(err)
		}
	}
}
