package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"piileak/internal/crawler"
)

// Result is one shard's verified output: the checkpoint header its
// worker wrote and its site lines, in the order they were appended,
// each indexed in the shard's own interleaved source.
type Result struct {
	Header crawler.Header
	Sites  []crawler.SiteResult
}

// ResultPath is shard s-of-K's result file under a shard directory: its
// checkpoint, sealed and renamed.
func ResultPath(dir string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.jsonl", shard, shards))
}

// CheckpointPath is shard s-of-K's checkpoint under a shard directory.
func CheckpointPath(dir string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%d-of-%d", shard, shards))
}

// ReadResult loads one shard result file, verifying it before returning
// anything: it reads through the checkpoint's line reader in strict
// mode, so the trailer must match the site lines' count and SHA-256; the
// header must name a valid shard; and every site index must be unique
// and inside that shard. Exactly one of the results is nil — a corrupt,
// truncated or tampered file yields an error, never a partial Result.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: read result: %w", err)
	}
	return parseResult(path, data)
}

// parseResult is ReadResult on bytes — the fuzz target.
func parseResult(path string, data []byte) (*Result, error) {
	hdr, sites, err := crawler.ReadSealed(path, bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("shard: result: %w", err)
	}
	if hdr.Shards < 1 || hdr.Shard < 0 || hdr.Shard >= hdr.Shards {
		return nil, fmt.Errorf("shard: result %s: shard %d of %d is not a valid coordinate", path, hdr.Shard, hdr.Shards)
	}
	size := (&Plan{Shards: hdr.Shards, Universe: hdr.Universe}).Size(hdr.Shard)
	seen := make(map[int]bool, len(sites))
	for i := range sites {
		j := sites[i].Index
		if j < 0 || j >= size {
			return nil, fmt.Errorf("shard: result %s: site index %d outside shard %d's %d sites", path, j, hdr.Shard, size)
		}
		if seen[j] {
			return nil, fmt.Errorf("shard: result %s: site index %d repeated", path, j)
		}
		seen[j] = true
	}
	return &Result{Header: hdr, Sites: sites}, nil
}
