package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
	"piileak/internal/mailbox"
)

// ResultSchema versions the shard result file layout.
const ResultSchema = 1

// SiteRecord is one site's complete pipeline output in serialized
// form: everything the merge needs to reconstruct the unsharded study's
// per-site state. Index is the site's GLOBAL index in the ranked list,
// not its position within the shard — the merge re-interleaves records
// by it.
type SiteRecord struct {
	Index   int                        `json:"index"`
	Crawl   crawler.SiteCrawl          `json:"crawl"`
	Mail    []mailbox.Message          `json:"mail,omitempty"`
	Blocked map[string]int             `json:"blocked,omitempty"`
	Records int                        `json:"records,omitempty"`
	Leaks   []core.Leak                `json:"leaks,omitempty"`
	Reqs    []httpmodel.IndexedRequest `json:"requests,omitempty"`
}

// Manifest is a shard result file's header line: the run identity that
// ties the file to its plan, the shard coordinates, summary counts, and
// the content digest the merge verifies before trusting a single byte
// of the site lines.
type Manifest struct {
	Schema    int    `json:"schema"`
	EcoSeed   uint64 `json:"eco_seed"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	Browser   string `json:"browser"`
	Shards    int    `json:"shards"`
	Shard     int    `json:"shard"`
	Universe  int    `json:"universe"`
	// Sites/Leaks/Records summarize the site lines below.
	Sites   int `json:"sites"`
	Leaks   int `json:"leaks"`
	Records int `json:"records"`
	// Digest is the hex SHA-256 of the site lines exactly as written
	// (every byte after the header line).
	Digest string `json:"digest"`
}

// Result is one shard's loaded output: the verified manifest plus the
// site records in ascending global-index order.
type Result struct {
	Manifest Manifest
	Records  []SiteRecord
}

// ResultPath is shard s-of-K's result file under a shard directory.
func ResultPath(dir string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.jsonl", shard, shards))
}

// CheckpointPath is shard s-of-K's crawl checkpoint under a shard
// directory.
func CheckpointPath(dir string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%d-of-%d", shard, shards))
}

// WriteResult serializes a shard's output: one manifest header line
// whose digest covers the site lines, then one JSON line per site.
// The whole file is written atomically (temp + rename), so a killed
// worker leaves either its previous complete result or none — never a
// torn one the merge could half-trust.
func WriteResult(path string, m Manifest, recs []SiteRecord) error {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("shard: encode site record: %w", err)
		}
	}
	m.Schema = ResultSchema
	m.Sites = len(recs)
	m.Leaks = 0
	m.Records = 0
	for i := range recs {
		m.Leaks += len(recs[i].Leaks)
		m.Records += recs[i].Records
	}
	sum := sha256.Sum256(body.Bytes())
	m.Digest = hex.EncodeToString(sum[:])

	var out bytes.Buffer
	hdr := json.NewEncoder(&out)
	if err := hdr.Encode(&m); err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	out.Write(body.Bytes())
	return writeFile(path, out.Bytes())
}

// ReadResult loads one shard result file, verifying the digest and the
// structural invariants before returning anything: the manifest parses,
// the digest over the site lines matches, the record count matches, the
// global indexes are strictly ascending and all map to this shard under
// the manifest's interleave. Exactly one of the results is nil — a
// corrupt, truncated or tampered file yields an error, never a partial
// Result.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: read result: %w", err)
	}
	return parseResult(path, data)
}

// parseResult is ReadResult on bytes — the fuzz target.
func parseResult(path string, data []byte) (*Result, error) {
	head, body, found := bytes.Cut(data, []byte("\n"))
	if !found {
		return nil, fmt.Errorf("shard: result %s: no manifest line", path)
	}
	var m Manifest
	if err := json.Unmarshal(head, &m); err != nil {
		return nil, fmt.Errorf("shard: result %s: manifest: %w", path, err)
	}
	if m.Schema != ResultSchema {
		return nil, fmt.Errorf("shard: result %s: schema %d, want %d", path, m.Schema, ResultSchema)
	}
	if m.Shards < 1 || m.Shard < 0 || m.Shard >= m.Shards {
		return nil, fmt.Errorf("shard: result %s: shard %d of %d is not a valid coordinate", path, m.Shard, m.Shards)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != m.Digest {
		return nil, fmt.Errorf("shard: result %s: content digest %s does not match manifest %s — refusing to merge", path, got, m.Digest)
	}

	recs := make([]SiteRecord, 0, m.Sites)
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var r SiteRecord
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("shard: result %s: site record %d: %w", path, len(recs), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != m.Sites {
		return nil, fmt.Errorf("shard: result %s: %d site records, manifest says %d", path, len(recs), m.Sites)
	}
	leaks, records := 0, 0
	prev := -1
	for i := range recs {
		r := &recs[i]
		if r.Index < 0 || r.Index >= m.Universe {
			return nil, fmt.Errorf("shard: result %s: site index %d outside universe %d", path, r.Index, m.Universe)
		}
		if r.Index%m.Shards != m.Shard {
			return nil, fmt.Errorf("shard: result %s: site index %d belongs to shard %d, not %d", path, r.Index, r.Index%m.Shards, m.Shard)
		}
		if r.Index <= prev {
			return nil, fmt.Errorf("shard: result %s: site index %d out of order after %d", path, r.Index, prev)
		}
		prev = r.Index
		leaks += len(r.Leaks)
		records += r.Records
	}
	if leaks != m.Leaks {
		return nil, fmt.Errorf("shard: result %s: %d leaks, manifest says %d", path, leaks, m.Leaks)
	}
	if records != m.Records {
		return nil, fmt.Errorf("shard: result %s: %d records, manifest says %d", path, records, m.Records)
	}
	return &Result{Manifest: m, Records: recs}, nil
}
