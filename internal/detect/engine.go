// Package detect is the paper's §4.1 leak detector, built in two
// phases.
//
// Phase 1 — Engine — compiles everything scan-invariant once: the
// persona's candidate tokens (§3.1), whose automaton the set compiles
// on its first scan, the public suffix list and the CNAME-uncloaking
// classifier, plus the compile-time facts the
// scan fast path relies on (whether any token could hide behind a JSON
// re-rendering). Engines are immutable and safe for concurrent use; a
// process-wide build cache keyed by (persona, CandidateConfig) means
// ablations, the browser countermeasure evaluation and concurrent
// tenants of one process all share a single compile.
//
// Phase 2 — Scanner — is the per-worker mutable half: pooled match and
// surface scratch reused across records, a Contains fast path that
// dismisses clean records without allocating, and per-site host →
// receiver memoization. Scanners come from Engine.NewScanner (one per
// pipeline worker) or transparently from a sync.Pool via Engine's own
// pipeline.Detector implementation.
//
// The original single-phase detector survives only in this package's
// _test.go files, as the differential oracle: for every input the
// Scanner's output must be byte-identical to it, per record, per crawl
// and per study run mode.
package detect

import (
	"fmt"
	"strings"
	"sync"

	"piileak/internal/core"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/psl"
)

// Config parameterizes an Engine compile.
type Config struct {
	// Candidates is the §3.1 candidate-set configuration; the zero
	// value selects the study defaults (depth 2, min length 8).
	Candidates pii.CandidateConfig
}

// Engine is the immutable, concurrency-safe compile of everything
// detection needs that does not change between scans. Build one per
// (persona, config) — or let NewEngine's shared cache do it for you —
// and share it across every pipeline worker, shard and tenant.
type Engine struct {
	cands *pii.CandidateSet
	list  *psl.List
	cname *dnssim.Classifier

	// jsonLeafSafe records that no candidate token could match a
	// re-rendered JSON number or bool leaf without also appearing in
	// the raw body bytes; with it (plus a per-record backslash check)
	// a raw-body automaton miss conclusively clears a JSON payload.
	jsonLeafSafe bool
	fromCache    bool

	pool sync.Pool
}

// NewEngine compiles (or fetches from the shared build cache) the
// detection engine for a persona. cname enables CNAME uncloaking; nil
// disables it.
func NewEngine(p pii.Persona, cname *dnssim.Classifier, cfg Config) (*Engine, error) {
	cs, hit, err := cachedCandidates(p, cfg.Candidates)
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	e := &Engine{
		cands:        cs,
		list:         psl.Default(),
		cname:        cname,
		jsonLeafSafe: jsonLeafSafe(cs),
		fromCache:    hit,
	}
	e.pool.New = func() any { return e.NewScanner() }
	return e, nil
}

// MustNewEngine panics on configuration errors.
func MustNewEngine(p pii.Persona, cname *dnssim.Classifier, cfg Config) *Engine {
	e, err := NewEngine(p, cname, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Candidates returns the engine's compiled candidate set.
func (e *Engine) Candidates() *pii.CandidateSet { return e.cands }

// CNAME returns the engine's CNAME-uncloaking classifier (nil when
// uncloaking is disabled).
func (e *Engine) CNAME() *dnssim.Classifier { return e.cname }

// FromCache reports whether the engine's candidate set came out of the
// shared build cache rather than a fresh compile.
func (e *Engine) FromCache() bool { return e.fromCache }

// DetectSite scans all records of one site crawl. It is safe for
// concurrent use: each call borrows a pooled Scanner. Workers that scan
// many sites should hold their own Scanner (NewScanner) instead and
// skip the pool round-trip.
func (e *Engine) DetectSite(siteDomain string, records []httpmodel.Record) []core.Leak {
	s := e.pool.Get().(*Scanner)
	defer e.pool.Put(s)
	return s.DetectSite(siteDomain, records)
}

// jsonLeafSafe reports that no candidate token could be produced by the
// JSON body-param re-rendering (float64 %v formatting of number leaves,
// "true"/"false" bools) without its bytes also being present verbatim
// in the raw payload. When true, a raw-body miss plus an absence of
// escape characters conclusively clears a JSON body on the fast path.
func jsonLeafSafe(cs *pii.CandidateSet) bool {
	for _, t := range cs.Tokens() {
		if floatRenderable(t.Value) ||
			strings.Contains("true", t.Value) || strings.Contains("false", t.Value) {
			return false
		}
	}
	return true
}

// floatRenderable reports whether s could be the %v rendering of a
// float64: [-]digits[.digits][e[+-]digits], at most 24 bytes.
func floatRenderable(s string) bool {
	if len(s) == 0 || len(s) > 24 {
		return false
	}
	i := 0
	digits := func() bool {
		n := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
			n++
		}
		return n > 0
	}
	if s[i] == '-' {
		i++
	}
	if !digits() {
		return false
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(s) && s[i] == 'e' {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == len(s)
}
