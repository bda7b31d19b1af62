package pii

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"piileak/internal/ahocorasick"
)

// CandidateConfig controls candidate-token generation (§3.1).
type CandidateConfig struct {
	// MaxDepth is the maximum transform-chain length. The paper applies
	// encodings/hashes "at most three times"; depth 2 already covers
	// every chain observed in its Table 2 (the deepest being SHA256 of
	// MD5), so 2 is the default. Depth 3 is exercised by ablation A1.
	MaxDepth int
	// Transforms restricts the transform set; nil means every
	// registered transform except base64url. (An unpadded base64url
	// token is a strict prefix of the padded base64 token of the same
	// plaintext, so including both double-reports every base64 leak;
	// pass Transforms explicitly to hunt base64url-only trackers.)
	Transforms []string
	// MinTokenLen drops tokens shorter than this many bytes, which
	// would false-positive on unrelated traffic (e.g. 4-hex-digit CRC16
	// of short fields). Default 8.
	MinTokenLen int
}

func (c CandidateConfig) withDefaults() CandidateConfig {
	if c.MaxDepth == 0 {
		c.MaxDepth = 2
	}
	if c.Transforms == nil {
		for _, name := range TransformNames() {
			if name != "base64url" {
				c.Transforms = append(c.Transforms, name)
			}
		}
	}
	if c.MinTokenLen == 0 {
		c.MinTokenLen = 8
	}
	return c
}

// Key returns a canonical fingerprint of the effective configuration
// (after defaulting), so configurations that resolve identically — e.g.
// the zero MaxDepth and an explicit 2 — share one cache slot in the
// detection-engine build cache.
func (c CandidateConfig) Key() string {
	c = c.withDefaults()
	return "d=" + strconv.Itoa(c.MaxDepth) +
		"|min=" + strconv.Itoa(c.MinTokenLen) +
		"|t=" + strings.Join(c.Transforms, ",")
}

// Token is one candidate string the detector searches for.
type Token struct {
	// Value is the exact byte string to match.
	Value string `json:"value"`
	// Field is the PII field the token derives from.
	Field Field `json:"field"`
	// Chain is the transform chain, innermost first; empty for
	// plaintext.
	Chain []string `json:"chain,omitempty"`
}

// Label renders the token's chain in Table 1b vocabulary.
func (t Token) Label() string { return ChainLabel(t.Chain) }

// CandidateSet is the compiled token set: the tokens plus an
// Aho-Corasick automaton for single-pass scanning. It is immutable and
// safe for concurrent use.
type CandidateSet struct {
	cfg     CandidateConfig
	tokens  []Token
	matcher *ahocorasick.Matcher
}

// candidateBuilds counts BuildCandidates calls process-wide; the
// detection-engine build cache's tests assert it stays flat on cache
// hits.
var candidateBuilds atomic.Uint64

// CandidateBuilds returns the number of BuildCandidates calls so far in
// this process. It exists so tests can pin that cached code paths stop
// rebuilding candidate sets.
func CandidateBuilds() uint64 { return candidateBuilds.Load() }

// BuildCandidates generates and compiles the candidate set for a
// persona. Chains are explored breadth first and deduplicated by value,
// so a value reachable through several chains is attributed to its
// shortest chain (e.g. rot13∘rot13 collapses into plaintext).
func BuildCandidates(p Persona, cfg CandidateConfig) (*CandidateSet, error) {
	candidateBuilds.Add(1)
	cfg = cfg.withDefaults()
	transforms := make([]Transform, 0, len(cfg.Transforms))
	for _, name := range cfg.Transforms {
		t, ok := LookupTransform(name)
		if !ok {
			return nil, fmt.Errorf("pii: unknown transform %q", name)
		}
		transforms = append(transforms, t)
	}

	cs := &CandidateSet{cfg: cfg}
	seen := make(map[string]bool)
	add := func(value []byte, field Field, chain []string) {
		if len(value) < cfg.MinTokenLen || seen[string(value)] {
			return
		}
		seen[string(value)] = true
		cs.tokens = append(cs.tokens, Token{Value: string(value), Field: field, Chain: chain})
	}

	type work struct {
		data  []byte
		chain []string
	}
	for _, field := range p.Fields() {
		level := []work{{data: []byte(field.Value)}}
		add(level[0].data, field, nil)
		for depth := 1; depth <= cfg.MaxDepth; depth++ {
			next := make([]work, 0, len(level)*len(transforms))
			for _, w := range level {
				for _, t := range transforms {
					// Skip immediate self-repetition: for hashes it
					// is covered by depth anyway and for involutions
					// (rot13) it collapses to the parent.
					if len(w.chain) > 0 && w.chain[len(w.chain)-1] == t.Name {
						continue
					}
					out := t.Apply(w.data)
					chain := append(append([]string(nil), w.chain...), t.Name)
					add(out, field, chain)
					next = append(next, work{data: out, chain: chain})
				}
			}
			level = next
		}
	}

	values := make([]string, len(cs.tokens))
	for i, t := range cs.tokens {
		values[i] = t.Value
	}
	cs.matcher = ahocorasick.NewStrings(values)
	return cs, nil
}

// MustBuildCandidates panics on configuration errors.
func MustBuildCandidates(p Persona, cfg CandidateConfig) *CandidateSet {
	cs, err := BuildCandidates(p, cfg)
	if err != nil {
		panic(err)
	}
	return cs
}

// FindIn returns the distinct tokens occurring in data, in first-match
// order.
func (cs *CandidateSet) FindIn(data []byte) []Token {
	idxs := cs.matcher.FindUnique(data)
	if len(idxs) == 0 {
		return nil
	}
	out := make([]Token, len(idxs))
	for i, idx := range idxs {
		out[i] = cs.tokens[idx]
	}
	return out
}

// Contains reports whether any candidate token occurs in data.
func (cs *CandidateSet) Contains(data []byte) bool {
	return cs.matcher.Contains(data)
}

// ContainsString is Contains for string input; it allocates nothing.
func (cs *CandidateSet) ContainsString(s string) bool {
	return cs.matcher.ContainsString(s)
}

// Scratch is the reusable dedup state FindInto needs; the zero value is
// ready. One Scratch must not be shared between concurrent scans.
type Scratch = ahocorasick.Scratch

// FindInto appends the indices of the distinct tokens occurring in data
// to dst, in first-match order, reusing sc. Index i resolves through
// TokenAt(i). Content and order match FindIn exactly; the only
// allocations are dst growth and sc's first use.
func (cs *CandidateSet) FindInto(data []byte, sc *Scratch, dst []int) []int {
	return cs.matcher.FindUniqueInto(data, sc, dst)
}

// FindStringInto is FindInto for string input, avoiding the []byte
// conversion copy.
func (cs *CandidateSet) FindStringInto(data string, sc *Scratch, dst []int) []int {
	return cs.matcher.FindUniqueStringInto(data, sc, dst)
}

// TokenAt returns the token at index i of the compiled set, as reported
// by FindInto. Callers must not mutate the result's Chain.
func (cs *CandidateSet) TokenAt(i int) Token { return cs.tokens[i] }

// Tokens returns the generated tokens. Callers must not mutate the
// result.
func (cs *CandidateSet) Tokens() []Token { return cs.tokens }

// Size returns the number of candidate tokens.
func (cs *CandidateSet) Size() int { return len(cs.tokens) }

// States returns the automaton state count (a memory proxy reported by
// ablation A1).
func (cs *CandidateSet) States() int { return cs.matcher.NumStates() }

// Config returns the effective configuration after defaulting.
func (cs *CandidateSet) Config() CandidateConfig { return cs.cfg }
