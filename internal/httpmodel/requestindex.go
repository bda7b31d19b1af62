package httpmodel

// IndexedRequest is the reduced form of a captured request that the
// §7.2 blocklist evaluation needs after full captures are released:
// the URL (rule matching + initiator-chain linking), the initiator URL,
// the resource type ($type filter options) and the sequence number
// (locating the leaky request). Everything else — headers, cookies,
// bodies — is dropped, which is what bounds the streaming pipeline's
// retained state to a few dozen bytes per request instead of the whole
// capture.
type IndexedRequest struct {
	URL       string       `json:"url"`
	Initiator string       `json:"initiator,omitempty"`
	Type      ResourceType `json:"type,omitempty"`
	Seq       int          `json:"seq"`
}

// RequestIndex maps site domains to their reduced request lists. It is
// the only per-record state a study keeps once detection has run: the
// blocklist evaluation walks initiator chains through it exactly as it
// would through the full records.
type RequestIndex struct {
	sites map[string][]IndexedRequest
}

// NewRequestIndex returns an empty index.
func NewRequestIndex() *RequestIndex {
	return &RequestIndex{sites: map[string][]IndexedRequest{}}
}

// ReduceRecords strips captured records down to their indexed form. The
// streaming pipeline's detect stage calls this before releasing a
// site's captures, so the reduction can happen concurrently outside the
// index's owner goroutine.
func ReduceRecords(records []Record) []IndexedRequest {
	rs := make([]IndexedRequest, len(records))
	for i := range records {
		r := &records[i]
		rs[i] = IndexedRequest{
			URL:       r.Request.URL,
			Initiator: r.Request.Initiator,
			Type:      r.Request.Type,
			Seq:       r.Seq,
		}
	}
	return rs
}

// AddSite reduces one site's captured records into the index. Calling
// it again for the same domain replaces the entry (matching the
// last-crawl-wins semantics of rebuilding a site-records map).
func (ix *RequestIndex) AddSite(domain string, records []Record) {
	ix.sites[domain] = ReduceRecords(records)
}

// AddReduced stores an already-reduced request list for a domain.
func (ix *RequestIndex) AddReduced(domain string, rs []IndexedRequest) {
	ix.sites[domain] = rs
}

// Sites reports how many site entries the index holds.
func (ix *RequestIndex) Sites() int { return len(ix.sites) }

// Has reports whether the index holds an entry for the domain.
func (ix *RequestIndex) Has(domain string) bool {
	_, ok := ix.sites[domain]
	return ok
}

// Chain walks Initiator links through a site's indexed requests,
// returning the requests that led to the one with the given sequence
// number. The walk replicates the full-capture initiator chain exactly:
// URL lookups resolve to the last record with that URL, the start is
// the last record with the given Seq, and the walk stops after depth 8,
// at a missing link, or at a self-loop.
func (ix *RequestIndex) Chain(domain string, seq int) []Request {
	rs := ix.sites[domain]
	byURL := map[string]*IndexedRequest{}
	var start *IndexedRequest
	for i := range rs {
		r := &rs[i]
		byURL[r.URL] = r
		if r.Seq == seq {
			start = r
		}
	}
	if start == nil {
		return nil
	}
	var chain []Request
	cur := start
	for depth := 0; depth < 8; depth++ {
		init := cur.Initiator
		if init == "" {
			break
		}
		next, ok := byURL[init]
		if !ok || next == cur {
			break
		}
		chain = append(chain, Request{URL: next.URL, Initiator: next.Initiator, Type: next.Type})
		cur = next
	}
	return chain
}
