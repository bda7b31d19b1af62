// Pcap-export: run a small study and export one leaking site's traffic
// as a Wireshark-openable capture, then parse it back with the built-in
// decoder to show what an analyst would see on the wire.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/url"
	"os"
	"sort"

	"piileak"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/pcap"
	"piileak/internal/site"
)

func main() {
	ctx := context.Background()
	study, err := piileak.NewStudy(piileak.SmallConfig(29))
	if err != nil {
		log.Fatal(err)
	}
	if err := study.Run(ctx); err != nil {
		log.Fatal(err)
	}

	// Export the hero sender's crawl (the site with the most
	// receivers). The study released its captures after detection, so
	// crawl the hero site again: the crawl is deterministic, and this
	// one keeps its records.
	hero := study.Analysis.Headline().MaxReceiverSite
	var heroSite []*site.Site
	for _, s := range study.Eco.Sites {
		if s.Domain == hero {
			heroSite = append(heroSite, s)
		}
	}
	ds, err := crawler.Run(ctx, study.Eco, study.Config.Browser, crawler.Options{Source: site.Slice(heroSite)})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	pw := pcap.NewWriter(&buf)
	exchanges := 0
	for _, c := range ds.Successes() {
		if err := pw.WriteRecords(c.Records); err != nil {
			log.Fatal(err)
		}
		exchanges += len(c.Records)
	}

	path := "hero-crawl.pcap"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d HTTP exchanges from %s to %s (%d bytes)\n",
		exchanges, hero, path, buf.Len())

	// Decode it back: count the connections and show the first leaky
	// stream the way tcpdump would.
	packets, err := pcap.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	syns := 0
	for i := range packets {
		if packets[i].SYN() && !packets[i].ACK() {
			syns++
		}
	}
	fmt.Printf("capture holds %d packets across %d TCP connections\n", len(packets), syns)

	// Find one of the hero site's detected leaks in the raw streams —
	// the identifier as it crossed the wire. The same hashed e-mail
	// reaches many receivers, so match the leak's own request (its
	// path), not just the token, and walk the streams in a fixed order.
	var leak *core.Leak
	for i := range study.Leaks {
		if l := &study.Leaks[i]; l.Site == hero && len(l.Token.Value) < 80 {
			leak = l
			break
		}
	}
	if leak == nil {
		return
	}
	u, err := url.Parse(leak.RequestURL)
	if err != nil {
		log.Fatal(err)
	}
	streams := pcap.Reassemble(packets)
	keys := make([]pcap.StreamKey, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return streamLess(keys[a], keys[b]) })
	for _, key := range keys {
		stream := streams[key]
		line := stream
		if i := bytes.IndexByte(line, '\r'); i >= 0 {
			line = line[:i]
		}
		fields := bytes.Fields(line)
		if key.DstPort != 80 || len(fields) < 2 || !bytes.Contains(stream, []byte(leak.Token.Value)) {
			continue
		}
		target, err := url.Parse(string(fields[1]))
		if err != nil || target.Path != u.Path {
			continue
		}
		if len(line) > 120 {
			line = append(line[:117:117], []byte("...")...)
		}
		fmt.Printf("a leak to %s, as captured on the wire:\n  %s\n", leak.Receiver, line)
		break
	}
}

// streamLess orders stream keys by source, then destination, address
// and port.
func streamLess(a, b pcap.StreamKey) bool {
	if c := bytes.Compare(a.SrcIP[:], b.SrcIP[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(a.DstIP[:], b.DstIP[:]); c != 0 {
		return c < 0
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	return a.DstPort < b.DstPort
}
