package pii

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

// a1Depth3Transforms is the transform subset ablation A1 compiles at
// depth 3 (runA1 in the root package): the hashes and encodings
// trackers actually chain.
var a1Depth3Transforms = []string{"md5", "sha1", "sha256", "sha512", "base64", "base32", "ripemd_160", "sha3_256"}

// trieCap is the most bytes of a token the candidate automaton's trie
// holds (the ahocorasick package's prefixCap).
const trieCap = 24

// cappedPrefixes counts the distinct non-empty prefixes of at most
// trieCap bytes of the tokens: the trie's states other than the root.
func cappedPrefixes(tokens []Token) int {
	seen := map[string]bool{}
	for _, t := range tokens {
		for i := 1; i <= min(len(t.Value), trieCap); i++ {
			seen[t.Value[:i]] = true
		}
	}
	return len(seen)
}

// goldenCases are the candidate configurations TestCandidateSetGolden
// pins.
var goldenCases = []struct {
	name   string
	cfg    CandidateConfig
	size   int
	states int
	digest string
}{
	{"depth1", CandidateConfig{MaxDepth: 1}, 343, 6739,
		"7e7e1e31974ffe4611eca33b5b6a522d99872eafc9ab64f31ea9764decbda43d"},
	{"depth2", CandidateConfig{MaxDepth: 2}, 10796, 206466,
		"9f73237063145c89f6f090136d364ba370f1fef73c792e05069dfe9e113fb920"},
	{"a1-depth3", CandidateConfig{MaxDepth: 3, Transforms: a1Depth3Transforms}, 5024, 108195,
		"8033d8134f1cca6bf92593841f67a54d35c64502e5f92e7a1b47c2caeff12fbd"},
}

// TestCandidateSetGolden pins the compiled candidate sets' sizes and
// digests to constants computed with the encoders, hashes and automaton
// as they stood before the pooled compressors, table-driven Whirlpool
// and flat automaton replaced them. The byte-identity tests elsewhere
// compare run modes of one build; these digests catch a change that
// alters a token's bytes or its order in every mode at once. The state
// counts are the prefix-capped trie's, and each must also equal an
// independent count of the tokens' distinct capped prefixes plus the
// root.
func TestCandidateSetGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			cs := MustBuildCandidates(Default(), c.cfg)
			if cs.Size() != c.size || cs.States() != c.states {
				t.Errorf("Size/States = %d/%d, want %d/%d", cs.Size(), cs.States(), c.size, c.states)
			}
			if want := cappedPrefixes(cs.Tokens()) + 1; cs.States() != want {
				t.Errorf("States = %d, want %d distinct capped prefixes plus the root", cs.States(), want)
			}
			if got := cs.Digest(); got != c.digest {
				t.Errorf("token digest = %s, want %s", got, c.digest)
			}
		})
	}
}

// TestBuildCandidatesIndependentOfWorkers builds the depth-2 set and
// A1's depth-3 subset with the transforms applied on one goroutine and
// on four: the tokens, their order and their chains must not depend on
// how many ran.
func TestBuildCandidatesIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range goldenCases[1:] {
		runtime.GOMAXPROCS(1)
		one := MustBuildCandidates(Default(), c.cfg)
		runtime.GOMAXPROCS(4)
		four := MustBuildCandidates(Default(), c.cfg)
		if one.Size() != four.Size() || one.Digest() != four.Digest() {
			t.Errorf("%s: GOMAXPROCS 1 built %d tokens (digest %s), 4 built %d (%s)",
				c.name, one.Size(), one.Digest(), four.Size(), four.Digest())
		}
	}
}

// TestDigestConcurrent calls Digest from 8 goroutines at once on a
// fresh set: every caller gets the one digest.
func TestDigestConcurrent(t *testing.T) {
	cs := MustBuildCandidates(Default(), goldenCases[0].cfg)
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = cs.Digest()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != goldenCases[0].digest {
			t.Errorf("goroutine %d: Digest = %s, want %s", i, d, goldenCases[0].digest)
		}
	}
}

// TestFirstScanCompileConcurrent scans a fresh set from 8 goroutines at
// once, half through FindInto and half through ContainsString first, so
// they race to compile its automaton: each gets what one goroutine gets
// from a second fresh set.
func TestFirstScanCompileConcurrent(t *testing.T) {
	p := Default()
	data := []byte("k=v&u=" + p.Email + "&h=" + string(MustApplyChain(p.Email, []string{"sha256"})))
	clean := "k=v&cache=173&src=page"
	scan := func(cs *CandidateSet, findFirst bool) (found []int, hit, miss bool) {
		if findFirst {
			found = cs.FindInto(data, &Scratch{}, nil)
		}
		hit, miss = cs.ContainsString(string(data)), cs.ContainsString(clean)
		if !findFirst {
			found = cs.FindInto(data, &Scratch{}, nil)
		}
		return found, hit, miss
	}
	want, wantHit, wantMiss := scan(MustBuildCandidates(p, goldenCases[0].cfg), true)
	if len(want) < 2 || !wantHit || wantMiss {
		t.Fatalf("one goroutine finds %v, hit %v, clean hit %v: want 2+ tokens, true, false", want, wantHit, wantMiss)
	}

	cs := MustBuildCandidates(p, goldenCases[0].cfg)
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			found, hit, miss := scan(cs, i%2 == 0)
			if !slices.Equal(found, want) || hit != wantHit || miss != wantMiss {
				t.Errorf("goroutine %d finds %v, hit %v, clean hit %v; want %v, %v, %v", i, found, hit, miss, want, wantHit, wantMiss)
			}
		}()
	}
	wg.Wait()
}
