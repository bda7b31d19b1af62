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
// at a missing link, or at a self-loop. Each lookup scans the site's
// requests backward, so a walk allocates nothing but the chain.
func (ix *RequestIndex) Chain(domain string, seq int) []Request {
	rs := ix.sites[domain]
	cur := last(rs, func(r *IndexedRequest) bool { return r.Seq == seq })
	if cur < 0 {
		return nil
	}
	var chain []Request
	for depth := 0; depth < 8; depth++ {
		init := rs[cur].Initiator
		if init == "" {
			break
		}
		next := last(rs, func(r *IndexedRequest) bool { return r.URL == init })
		if next < 0 || next == cur {
			break
		}
		r := &rs[next]
		chain = append(chain, Request{URL: r.URL, Initiator: r.Initiator, Type: r.Type})
		cur = next
	}
	return chain
}

// last returns the index of the last request match accepts, or -1.
func last(rs []IndexedRequest, match func(*IndexedRequest) bool) int {
	for i := len(rs) - 1; i >= 0; i-- {
		if match(&rs[i]) {
			return i
		}
	}
	return -1
}
