package ahocorasick

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestFindClassicExample(t *testing.T) {
	// The textbook he/she/his/hers example.
	m := NewStrings([]string{"he", "she", "his", "hers"})
	got := m.Find([]byte("ushers"))
	want := []Match{
		{Pattern: 1, End: 4}, // she
		{Pattern: 0, End: 4}, // he
		{Pattern: 3, End: 6}, // hers
	}
	sortMatches(got)
	sortMatches(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Find = %+v, want %+v", got, want)
	}
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].End != ms[b].End {
			return ms[a].End < ms[b].End
		}
		return ms[a].Pattern < ms[b].Pattern
	})
}

func TestOverlappingMatches(t *testing.T) {
	m := NewStrings([]string{"aa", "aaa"})
	got := m.Find([]byte("aaaa"))
	// "aa" at ends 2,3,4; "aaa" at ends 3,4.
	if len(got) != 5 {
		t.Errorf("got %d matches, want 5: %+v", len(got), got)
	}
}

func TestFindUnique(t *testing.T) {
	m := NewStrings([]string{"foo", "bar", "baz"})
	got := m.FindUnique([]byte("barbar foofoo bar"))
	want := []int{1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FindUnique = %v, want %v", got, want)
	}
}

func TestContains(t *testing.T) {
	m := NewStrings([]string{"needle"})
	if !m.Contains([]byte("a haystack with a needle inside")) {
		t.Error("Contains missed the needle")
	}
	if m.Contains([]byte("just hay")) {
		t.Error("Contains false positive")
	}
}

func TestEmptyPatternNeverMatches(t *testing.T) {
	m := NewStrings([]string{"", "x"})
	got := m.Find([]byte("xx"))
	for _, g := range got {
		if g.Pattern == 0 {
			t.Fatalf("empty pattern matched: %+v", g)
		}
	}
	if len(got) != 2 {
		t.Errorf("pattern x: got %d matches, want 2", len(got))
	}
}

func TestNoPatterns(t *testing.T) {
	m := New(nil)
	if m.Contains([]byte("anything")) {
		t.Error("empty automaton matched")
	}
	if got := m.Find([]byte("anything")); got != nil {
		t.Errorf("empty automaton Find = %v", got)
	}
}

func TestDuplicatePatternsReportBothIndices(t *testing.T) {
	m := NewStrings([]string{"dup", "dup"})
	got := m.FindUnique([]byte("a dup"))
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("duplicate patterns: FindUnique = %v", got)
	}
}

func TestPatternMetadata(t *testing.T) {
	m := NewStrings([]string{"abc", "de"})
	if m.numPatterns != 2 {
		t.Errorf("numPatterns = %d", m.numPatterns)
	}
	if m.NumStates() < 6 {
		t.Errorf("NumStates = %d, want >= 6", m.NumStates())
	}
}

func TestMatchEndOffsets(t *testing.T) {
	pattern := "oo@my"
	m := NewStrings([]string{pattern})
	got := m.Find([]byte("foo@mydom.com"))
	if len(got) != 1 {
		t.Fatalf("got %d matches", len(got))
	}
	start := got[0].End - len(pattern)
	if start != 1 || got[0].End != 6 {
		t.Errorf("match span [%d,%d), want [1,6)", start, got[0].End)
	}
}

// naiveMatches finds every occurrence of every pattern with
// strings.Index, in the automaton's documented order: by end offset,
// then longer pattern first, then lower index.
func naiveMatches(patterns []string, text string) []Match {
	var ms []Match
	for pi, p := range patterns {
		if p == "" {
			continue
		}
		for off := 0; ; {
			idx := strings.Index(text[off:], p)
			if idx < 0 {
				break
			}
			ms = append(ms, Match{Pattern: pi, End: off + idx + len(p)})
			off += idx + 1
		}
	}
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].End != ms[b].End {
			return ms[a].End < ms[b].End
		}
		if la, lb := len(patterns[ms[a].Pattern]), len(patterns[ms[b].Pattern]); la != lb {
			return la > lb
		}
		return ms[a].Pattern < ms[b].Pattern
	})
	return ms
}

// naiveUnique is the distinct patterns of naiveMatches in first-match
// order.
func naiveUnique(patterns []string, text string) []int {
	var out []int
	seen := map[int]bool{}
	for _, m := range naiveMatches(patterns, text) {
		if !seen[m.Pattern] {
			seen[m.Pattern] = true
			out = append(out, m.Pattern)
		}
	}
	return out
}

// distinctPrefixes counts the distinct non-empty prefixes of at most
// capLen bytes of the patterns: the trie's states other than the root.
func distinctPrefixes(patterns []string, capLen int) int {
	seen := map[string]bool{}
	for _, p := range patterns {
		for i := 1; i <= min(len(p), capLen); i++ {
			seen[p[:i]] = true
		}
	}
	return len(seen)
}

// checkAgainstNaive compares every scan entry point of an automaton
// over patterns with the naive reference on text, order included. It
// builds the automaton twice: at the production cap, and at a cap of 1
// to 3 bytes, which most of these short patterns exceed, so their
// remaining bytes are compared and the found patterns re-sorted.
func checkAgainstNaive(t *testing.T, patterns []string, text string) {
	t.Helper()
	bs := make([][]byte, len(patterns))
	for i, p := range patterns {
		bs[i] = []byte(p)
	}
	want := naiveMatches(patterns, text)
	wantUnique := naiveUnique(patterns, text)
	for _, capLen := range []int{prefixCap, 1 + len(text)%3} {
		m := build(patterns, strings.Compare, capLen)
		mb := build(bs, bytes.Compare, capLen)
		if got := m.Find([]byte(text)); !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d patterns %q text %q: Find\n got %v\nwant %v", capLen, patterns, text, got, want)
		}
		if got := mb.Find([]byte(text)); !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d patterns %q text %q: Find ([]byte patterns)\n got %v\nwant %v", capLen, patterns, text, got, want)
		}
		if got := m.FindUnique([]byte(text)); !reflect.DeepEqual(got, wantUnique) {
			t.Fatalf("cap %d patterns %q text %q: FindUnique = %v, want %v", capLen, patterns, text, got, wantUnique)
		}
		var sc Scratch
		for pass := 0; pass < 2; pass++ { // the second pass reuses sc
			if got := m.FindUniqueInto([]byte(text), &sc, nil); !reflect.DeepEqual(got, wantUnique) {
				t.Fatalf("cap %d patterns %q text %q pass %d: FindUniqueInto = %v, want %v", capLen, patterns, text, pass, got, wantUnique)
			}
			if got := m.FindUniqueStringInto(text, &sc, nil); !reflect.DeepEqual(got, wantUnique) {
				t.Fatalf("cap %d patterns %q text %q pass %d: FindUniqueStringInto = %v, want %v", capLen, patterns, text, pass, got, wantUnique)
			}
		}
		if got, want := m.ContainsString(text), len(want) > 0; got != want || m.Contains([]byte(text)) != want {
			t.Fatalf("cap %d patterns %q text %q: Contains = %v, want %v", capLen, patterns, text, got, want)
		}
		if got, want := m.NumStates(), distinctPrefixes(patterns, capLen)+1; got != want || mb.NumStates() != want {
			t.Fatalf("cap %d patterns %q: NumStates = %d, want %d", capLen, patterns, got, want)
		}
	}
}

// TestMatchesNaiveSearch cross-checks the automaton against strings.Index
// on random inputs over a tiny alphabet (maximizing overlap and failure
// transitions), including the order every scan reports matches in.
func TestMatchesNaiveSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(2))
		}
		return string(b)
	}
	for trial := 0; trial < 300; trial++ {
		var patterns []string
		for i := 0; i < rng.Intn(6)+1; i++ {
			patterns = append(patterns, randStr(rng.Intn(5)))
		}
		checkAgainstNaive(t, patterns, randStr(rng.Intn(50)))
	}
}

// FuzzMatcherMatchesNaive is TestMatchesNaiveSearch over fuzzed
// patterns ("|"-separated) and text.
func FuzzMatcherMatchesNaive(f *testing.F) {
	f.Add("he|she|his|hers", "ushers")
	f.Add("aa|aaa|a|aa", "aaaa")
	f.Add("|x", "xx")
	// First-level states with many children, as hex and base64
	// candidate tokens give them, so the dense rows are fuzzed.
	const hex = "0123456789abcdef"
	const b64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	var hexPats, b64Pats []string
	for _, first := range "0af" {
		for _, c := range hex {
			hexPats = append(hexPats, string(first)+string(c)+"9")
		}
	}
	for _, c := range b64 {
		b64Pats = append(b64Pats, "Q"+string(c))
	}
	f.Add(strings.Join(hexPats, "|"), "0f9a09af99f0a00a9c"+hex+hex)
	f.Add(strings.Join(b64Pats, "|")+"|QQx|Q", "QQQxQ+Q/"+b64)
	f.Fuzz(func(t *testing.T, pats, text string) {
		if len(pats) > 256 || len(text) > 1024 {
			return
		}
		checkAgainstNaive(t, strings.Split(pats, "|"), text)
	})
}

func TestQuickSinglePattern(t *testing.T) {
	property := func(pattern, prefix, suffix []byte) bool {
		if len(pattern) == 0 {
			return true
		}
		m := New([][]byte{pattern})
		text := append(append(append([]byte(nil), prefix...), pattern...), suffix...)
		return m.Contains(text)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScan64KTokens(b *testing.B) {
	// Approximates the detector's workload: tens of thousands of hex
	// tokens scanned over a kilobyte-scale request blob.
	patterns := make([][]byte, 64<<10)
	rng := rand.New(rand.NewSource(3))
	hexdig := []byte("0123456789abcdef")
	for i := range patterns {
		p := make([]byte, 32)
		for j := range p {
			p[j] = hexdig[rng.Intn(16)]
		}
		patterns[i] = p
	}
	m := New(patterns)
	text := bytes.Repeat([]byte("utm_source=newsletter&ud5f="), 40)
	text = append(text, patterns[100]...)
	b.ResetTimer()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if !m.Contains(text) {
			b.Fatal("lost the token")
		}
	}
}
