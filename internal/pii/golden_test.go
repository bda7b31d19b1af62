package pii

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// a1Depth3Transforms is the transform subset ablation A1 compiles at
// depth 3 (runA1 in the root package): the hashes and encodings
// trackers actually chain.
var a1Depth3Transforms = []string{"md5", "sha1", "sha256", "sha512", "base64", "base32", "ripemd_160", "sha3_256"}

// tokenDigest hashes every token's value, field and chain, in set
// order, with each string length-prefixed so binary (compressed) values
// and adjacent fields cannot alias.
func tokenDigest(tokens []Token) string {
	h := sha256.New()
	str := func(h hash.Hash, s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, t := range tokens {
		str(h, t.Value)
		str(h, string(t.Field.Type))
		str(h, t.Field.Value)
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(t.Chain)))
		h.Write(n[:])
		for _, c := range t.Chain {
			str(h, c)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCandidateSetGolden pins the compiled candidate sets to constants
// computed with the encoders, hashes and automaton as they stood before
// the pooled compressors, table-driven Whirlpool and flat automaton
// replaced them. The byte-identity tests elsewhere compare run modes of
// one build; these digests catch a change that alters a token's bytes,
// its order or the automaton's shape in every mode at once.
func TestCandidateSetGolden(t *testing.T) {
	cases := []struct {
		name   string
		cfg    CandidateConfig
		size   int
		states int
		digest string
	}{
		{"depth1", CandidateConfig{MaxDepth: 1}, 343, 17703,
			"7e7e1e31974ffe4611eca33b5b6a522d99872eafc9ab64f31ea9764decbda43d"},
		{"depth2", CandidateConfig{MaxDepth: 2}, 10796, 683205,
			"9f73237063145c89f6f090136d364ba370f1fef73c792e05069dfe9e113fb920"},
		{"a1-depth3", CandidateConfig{MaxDepth: 3, Transforms: a1Depth3Transforms}, 5024, 336599,
			"8033d8134f1cca6bf92593841f67a54d35c64502e5f92e7a1b47c2caeff12fbd"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs := MustBuildCandidates(Default(), c.cfg)
			if cs.Size() != c.size || cs.States() != c.states {
				t.Errorf("Size/States = %d/%d, want %d/%d", cs.Size(), cs.States(), c.size, c.states)
			}
			if got := tokenDigest(cs.Tokens()); got != c.digest {
				t.Errorf("token digest = %s, want %s", got, c.digest)
			}
		})
	}
}
