package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// cacheSchema versions the on-disk entry layout; bump it whenever the
// entry struct or key derivation changes and every stale entry becomes
// an automatic miss.
const cacheSchema = "piilint-cache-v1"

// A Cache is a content-keyed store of per-package analysis results.
// The key folds in everything a package's findings and facts can
// depend on — its own source bytes, the analyzer suite, the Go
// toolchain, and (recursively, via dep keys) every in-module
// dependency's source and facts — so a hit is sound by construction
// and a changed package invalidates exactly itself and its dependents.
type Cache struct {
	Dir string
}

// cacheEntry is the stored result of one package analysis.
type cacheEntry struct {
	Schema     string
	Key        string
	PkgPath    string
	Findings   []Finding
	Suppressed int
	Facts      []byte // FactSet.Encode
}

// Fingerprint digests the analyzer suite: names, docs and fact types.
// Changing any analyzer's behavior should change its Doc (or the
// schema), which rotates every key.
func Fingerprint(analyzers []*Analyzer) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", cacheSchema, runtime.Version())
	for _, a := range analyzers {
		fmt.Fprintf(h, "%s\x00%x\n", a.Name, sha256.Sum256([]byte(a.Doc)))
		for _, ft := range a.FactTypes {
			fmt.Fprintf(h, "fact %s\n", factType(ft))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Key derives a package's cache key from the suite fingerprint, the
// package's content hash, and its in-module dependencies' keys and
// fact hashes (sorted — the derivation is order-independent).
func (c *Cache) Key(fingerprint string, node *GraphPackage, depKeys map[string]string, depFacts FactReader) (string, error) {
	content, err := node.ContentHash()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\npkg %s\ndir %s\ncontent %s\n", fingerprint, node.PkgPath, node.Dir, content)
	deps := append([]string(nil), node.Imports...)
	sort.Strings(deps)
	for _, dep := range deps {
		facts := depFacts[dep]
		var fh [32]byte
		if facts != nil {
			fh = facts.Hash()
		}
		fmt.Fprintf(h, "dep %s key %s facts %x\n", dep, depKeys[dep], fh)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// path shards entries by key prefix to keep directories small.
func (c *Cache) path(key string) string {
	return filepath.Join(c.Dir, key[:2], key[2:]+".gob")
}

// Get loads the entry for key, returning (nil, nil) on a miss. Corrupt
// or mismatched entries are treated as misses, never errors — a cache
// must only ever accelerate.
func (c *Cache) Get(key, pkgPath string) (*PackageResult, error) {
	if c == nil || c.Dir == "" {
		return nil, nil
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, nil
	}
	var e cacheEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return nil, nil
	}
	if e.Schema != cacheSchema || e.Key != key || e.PkgPath != pkgPath {
		return nil, nil
	}
	facts, err := decodeFactSet(pkgPath, e.Facts)
	if err != nil {
		return nil, nil
	}
	return &PackageResult{
		PkgPath:    pkgPath,
		Findings:   e.Findings,
		Suppressed: e.Suppressed,
		Facts:      facts,
	}, nil
}

// Put stores one package's result under key, atomically (write to a
// temp file, rename into place) so concurrent linters never observe a
// torn entry.
func (c *Cache) Put(key string, res *PackageResult) error {
	if c == nil || c.Dir == "" {
		return nil
	}
	facts, err := res.Facts.Encode()
	if err != nil {
		return err
	}
	e := cacheEntry{
		Schema:     cacheSchema,
		Key:        key,
		PkgPath:    res.PkgPath,
		Findings:   res.Findings,
		Suppressed: res.Suppressed,
		Facts:      facts,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&e); err != nil {
		return fmt.Errorf("analysis: encoding cache entry for %s: %w", res.PkgPath, err)
	}
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close() //lint:allow closecheck the write error is the one worth reporting
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
