package detect

import (
	"sync"

	"piileak/internal/pii"
)

// The shared candidate-set build cache. Compiling a candidate set is the
// expensive half of an Engine (§3.1 explodes a persona into tens of
// thousands of tokens and an automaton over them); everything else in an
// Engine is cheap glue. The cache is keyed by the persona value plus the
// canonical CandidateConfig fingerprint, so ablations, the browser
// countermeasure matrix and repeated Study constructions in one process
// all share a single compile per distinct configuration.
//
// Entries are per-key once-guarded: concurrent first builders of the
// same key block on one compile instead of racing duplicates.

type cacheKey struct {
	persona pii.Persona
	cfg     string
}

type cacheEntry struct {
	once sync.Once
	cs   *pii.CandidateSet
	err  error
}

var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]*cacheEntry{}

	cacheHits   uint64
	cacheMisses uint64
)

// cachedCandidates returns the compiled candidate set for (persona,
// cfg), building it at most once per process. hit reports whether the
// compile was already present (or in flight) when the call arrived.
func cachedCandidates(p pii.Persona, cfg pii.CandidateConfig) (cs *pii.CandidateSet, hit bool, err error) {
	k := cacheKey{persona: p, cfg: cfg.Key()}
	cacheMu.Lock()
	e, ok := cache[k]
	if !ok {
		e = &cacheEntry{}
		cache[k] = e
		cacheMisses++
	} else {
		cacheHits++
	}
	cacheMu.Unlock()
	e.once.Do(func() {
		e.cs, e.err = pii.BuildCandidates(p, cfg)
	})
	if e.err != nil {
		return nil, false, e.err
	}
	return e.cs, ok, nil
}

// CacheStats reports the build cache's lifetime hit/miss counters.
func CacheStats() (hits, misses uint64) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return cacheHits, cacheMisses
}
