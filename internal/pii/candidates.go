package pii

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
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

// CandidateSet is the compiled token set: the tokens plus an
// Aho-Corasick automaton for single-pass scanning, compiled on the first
// call that scans or counts its states, so a process that only pins the
// set (Digest) never builds it. It is immutable and safe for concurrent
// use.
type CandidateSet struct {
	tokens []Token

	matcherOnce sync.Once
	matcher     *ahocorasick.Matcher

	digestOnce sync.Once
	digest     string
}

// work is one candidate value on its way to becoming a token: the
// field it derives from, its chain, and the item of the level above it
// (one transform shallower) that the chain's last transform applies to.
type work struct {
	field     int
	parent    int
	transform Transform
	chain     []string
	data      []byte
}

// BuildCandidates generates the candidate set for a persona; its
// automaton is compiled on first scan. Chains are explored breadth
// first and deduplicated by value, so a value reachable through several
// chains is attributed to its shortest chain (e.g. rot13∘rot13
// collapses into plaintext).
//
// Each depth's work list is expanded for every field at once and its
// transforms applied on GOMAXPROCS goroutines, each item into its own
// slot; the dedup then runs field by field, shallowest chain first, so
// the tokens and their order do not depend on the number of goroutines.
func BuildCandidates(p Persona, cfg CandidateConfig) (*CandidateSet, error) {
	cfg = cfg.withDefaults()
	transforms := make([]Transform, 0, len(cfg.Transforms))
	for _, name := range cfg.Transforms {
		t, ok := LookupTransform(name)
		if !ok {
			return nil, fmt.Errorf("pii: unknown transform %q", name)
		}
		transforms = append(transforms, t)
	}

	fields := p.Fields()
	// levels[d] holds every chain of d transforms, field by field.
	levels := make([][]work, 1, cfg.MaxDepth+1)
	for f, field := range fields {
		levels[0] = append(levels[0], work{field: f, data: []byte(field.Value)})
	}
	for depth := 1; depth <= cfg.MaxDepth; depth++ {
		level := levels[depth-1]
		next := make([]work, 0, len(level)*len(transforms))
		for i, w := range level {
			for _, t := range transforms {
				// Skip immediate self-repetition: for hashes it is
				// covered by depth anyway and for involutions (rot13)
				// it collapses to the parent.
				if len(w.chain) > 0 && w.chain[len(w.chain)-1] == t.Name {
					continue
				}
				chain := append(append([]string(nil), w.chain...), t.Name)
				next = append(next, work{field: w.field, parent: i, transform: t, chain: chain})
			}
		}
		applyTransforms(next, level)
		levels = append(levels, next)
	}

	n := 0
	for _, level := range levels {
		n += len(level)
	}
	cs := &CandidateSet{tokens: make([]Token, 0, n)}
	seen := make(map[string]bool, n)
	cursor := make([]int, len(levels)) // each level's first item not yet added
	for f, field := range fields {
		for d, level := range levels {
			for ; cursor[d] < len(level) && level[cursor[d]].field == f; cursor[d]++ {
				w := &level[cursor[d]]
				if len(w.data) < cfg.MinTokenLen || seen[string(w.data)] {
					continue
				}
				v := string(w.data)
				seen[v] = true
				cs.tokens = append(cs.tokens, Token{Value: v, Field: field, Chain: w.chain})
			}
		}
	}
	return cs, nil
}

// automaton returns the set's automaton, compiling it on the first call.
func (cs *CandidateSet) automaton() *ahocorasick.Matcher {
	cs.matcherOnce.Do(func() {
		values := make([]string, len(cs.tokens))
		for i, t := range cs.tokens {
			values[i] = t.Value
		}
		cs.matcher = ahocorasick.NewStrings(values)
	})
	return cs.matcher
}

// applyTransforms computes each item's data by applying its transform
// to its parent's data, on GOMAXPROCS goroutines that take items in
// turn and write only their own.
func applyTransforms(items, parents []work) {
	var taken atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(taken.Add(1) - 1); i < len(items); i = int(taken.Add(1) - 1) {
				w := &items[i]
				w.data = w.transform.Apply(parents[w.parent].data)
			}
		}()
	}
	wg.Wait()
}

// FindIn returns the distinct tokens occurring in data, in first-match
// order.
func (cs *CandidateSet) FindIn(data []byte) []Token {
	idxs := cs.automaton().FindUnique(data)
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
	return cs.automaton().Contains(data)
}

// ContainsString is Contains for string input; it allocates nothing.
func (cs *CandidateSet) ContainsString(s string) bool {
	return cs.automaton().ContainsString(s)
}

// Scratch is the reusable dedup state FindInto needs; the zero value is
// ready. One Scratch must not be shared between concurrent scans.
type Scratch = ahocorasick.Scratch

// FindInto appends the indices of the distinct tokens occurring in data
// to dst, in first-match order, reusing sc. Index i resolves through
// TokenAt(i). Content and order match FindIn exactly; the only
// allocations are dst growth and sc's first use.
func (cs *CandidateSet) FindInto(data []byte, sc *Scratch, dst []int) []int {
	return cs.automaton().FindUniqueInto(data, sc, dst)
}

// TokenAt returns the token at index i of the compiled set, as reported
// by FindInto. Callers must not mutate the result's Chain.
func (cs *CandidateSet) TokenAt(i int) Token { return cs.tokens[i] }

// Tokens returns the generated tokens. Callers must not mutate the
// result.
func (cs *CandidateSet) Tokens() []Token { return cs.tokens }

// Size returns the number of candidate tokens.
func (cs *CandidateSet) Size() int { return len(cs.tokens) }

// Digest is the hex SHA-256 of every token's value, field and chain, in
// set order, each string length-prefixed so binary values and adjacent
// fields cannot alias. A checkpoint header pins it. It is computed once
// per set.
func (cs *CandidateSet) Digest() string {
	cs.digestOnce.Do(func() {
		h := sha256.New()
		var buf []byte // one token's encoding, reused
		num := func(v int) { buf = binary.BigEndian.AppendUint64(buf, uint64(v)) }
		str := func(s string) { num(len(s)); buf = append(buf, s...) }
		for _, t := range cs.tokens {
			buf = buf[:0]
			str(t.Value)
			str(string(t.Field.Type))
			str(t.Field.Value)
			num(len(t.Chain))
			for _, c := range t.Chain {
				str(c)
			}
			h.Write(buf)
		}
		cs.digest = hex.EncodeToString(h.Sum(nil))
	})
	return cs.digest
}

// States returns the automaton state count (a memory proxy reported by
// ablation A1), compiling the automaton if no scan has.
func (cs *CandidateSet) States() int { return cs.automaton().NumStates() }
