package pii

import (
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"piileak/internal/ahocorasick"
)

func TestDefaultPersonaFields(t *testing.T) {
	p := Default()
	fields := p.Fields()
	if len(fields) == 0 {
		t.Fatal("no fields")
	}
	types := map[Type]bool{}
	for _, f := range fields {
		if f.Value == "" {
			t.Errorf("field %s has empty value", f.Type)
		}
		types[f.Type] = true
	}
	for _, want := range []Type{TypeEmail, TypeUsername, TypeName, TypePhone, TypeDOB, TypeGender, TypeJob, TypeAddress} {
		if !types[want] {
			t.Errorf("missing PII type %s", want)
		}
	}
}

func TestEmailLocalDomain(t *testing.T) {
	p := Default()
	local, domain := p.EmailLocalDomain()
	if local+"@"+domain != p.Email {
		t.Errorf("split %q + %q does not reassemble %q", local, domain, p.Email)
	}
}

func TestFieldValue(t *testing.T) {
	p := Default()
	if got := p.FieldValue(TypeEmail); got != p.Email {
		t.Errorf("FieldValue(email) = %q", got)
	}
	if got := p.FieldValue(Type("nonexistent")); got != "" {
		t.Errorf("FieldValue(nonexistent) = %q", got)
	}
}

func TestApplyChainMatchesManualComposition(t *testing.T) {
	email := "foo@mydom.com"

	md5Hex := hex.EncodeToString(func() []byte { s := md5.Sum([]byte(email)); return s[:] }())
	sha := sha256.Sum256([]byte(md5Hex))
	want := hex.EncodeToString(sha[:])

	got := MustApplyChain(email, []string{"md5", "sha256"})
	if string(got) != want {
		t.Errorf("sha256ofmd5 = %s, want %s", got, want)
	}
}

func TestApplyChainPlaintextAndEncoding(t *testing.T) {
	got := MustApplyChain("foo", nil)
	if string(got) != "foo" {
		t.Errorf("empty chain = %q", got)
	}
	b64 := MustApplyChain("foo@mydom.com", []string{"base64"})
	if string(b64) != base64.StdEncoding.EncodeToString([]byte("foo@mydom.com")) {
		t.Errorf("base64 chain = %q", b64)
	}
}

func TestApplyChainUnknown(t *testing.T) {
	if _, err := ApplyChain("x", []string{"sha9000"}); err == nil {
		t.Error("unknown transform accepted")
	}
}

func TestChainLabel(t *testing.T) {
	cases := []struct {
		chain []string
		want  string
	}{
		{nil, "plaintext"},
		{[]string{"sha256"}, "sha256"},
		{[]string{"md5", "sha256"}, "sha256ofmd5"},
		{[]string{"base64"}, "base64"},
		{[]string{"md5", "base64", "sha1"}, "sha1ofbase64ofmd5"},
	}
	for _, c := range cases {
		if got := ChainLabel(c.chain); got != c.want {
			t.Errorf("ChainLabel(%v) = %q, want %q", c.chain, got, c.want)
		}
	}
}

func TestTransformRegistryComplete(t *testing.T) {
	names := TransformNames()
	// 10 codecs + 23 hashes.
	if len(names) != 33 {
		t.Errorf("TransformNames has %d entries, want 33: %v", len(names), names)
	}
	for _, mustHave := range []string{"base64", "bzip2", "rot13", "md5", "sha3_256", "whirlpool", "snefru128"} {
		if _, ok := LookupTransform(mustHave); !ok {
			t.Errorf("missing transform %q", mustHave)
		}
	}
}

func smallConfig(depth int) CandidateConfig {
	return CandidateConfig{
		MaxDepth:   depth,
		Transforms: []string{"md5", "sha256", "base64"},
	}
}

func TestBuildCandidatesFindsHashedEmail(t *testing.T) {
	p := Default()
	cs := MustBuildCandidates(p, smallConfig(2))

	sha := sha256.Sum256([]byte(p.Email))
	blob := []byte("https://tracker.net/p?ud=" + hex.EncodeToString(sha[:]) + "&v=1")
	tokens := cs.FindIn(blob)
	if len(tokens) != 1 {
		t.Fatalf("FindIn found %d tokens, want 1: %+v", len(tokens), tokens)
	}
	tok := tokens[0]
	if tok.Field.Type != TypeEmail {
		t.Errorf("token field = %s, want email", tok.Field.Type)
	}
	if tok.Label() != "sha256" {
		t.Errorf("token label = %s, want sha256", tok.Label())
	}
}

func TestBuildCandidatesFindsDepth2(t *testing.T) {
	p := Default()
	cs := MustBuildCandidates(p, smallConfig(2))
	tok := MustApplyChain(p.Email, []string{"md5", "sha256"})
	if got := cs.FindIn(tok); len(got) != 1 || got[0].Label() != "sha256ofmd5" {
		t.Fatalf("depth-2 token not attributed: %+v", got)
	}
}

func TestBuildCandidatesDepth1MissesDepth2(t *testing.T) {
	p := Default()
	cs := MustBuildCandidates(p, smallConfig(1))
	tok := MustApplyChain(p.Email, []string{"md5", "sha256"})
	if cs.Contains(tok) {
		t.Error("depth-1 candidate set matched a depth-2 token")
	}
}

func TestBuildCandidatesPlaintext(t *testing.T) {
	p := Default()
	cs := MustBuildCandidates(p, smallConfig(1))
	if got := cs.FindIn([]byte("email=" + p.Email)); len(got) == 0 || got[0].Label() != "plaintext" {
		t.Fatalf("plaintext email not found: %+v", got)
	}
}

func TestBuildCandidatesMinTokenLen(t *testing.T) {
	p := Default()
	cs := MustBuildCandidates(p, CandidateConfig{
		MaxDepth:    1,
		Transforms:  []string{"sha256"},
		MinTokenLen: 8,
	})
	// "female" (6 bytes) must be dropped; its sha256 (64 hex) kept.
	for _, tok := range cs.Tokens() {
		if len(tok.Value) < 8 {
			t.Errorf("token %q shorter than MinTokenLen", tok.Value)
		}
	}
	if cs.Contains([]byte("gender=female")) {
		t.Error("short plaintext token was not dropped")
	}
	sha := sha256.Sum256([]byte("female"))
	if !cs.Contains([]byte(hex.EncodeToString(sha[:]))) {
		t.Error("hashed short field missing")
	}
}

func TestBuildCandidatesDeduplicates(t *testing.T) {
	p := Default()
	cs := MustBuildCandidates(p, CandidateConfig{
		MaxDepth:   2,
		Transforms: []string{"rot13", "base64"},
	})
	seen := map[string]bool{}
	for _, tok := range cs.Tokens() {
		if seen[tok.Value] {
			t.Fatalf("duplicate token value %q", tok.Value)
		}
		seen[tok.Value] = true
	}
}

func TestBuildCandidatesUnknownTransform(t *testing.T) {
	if _, err := BuildCandidates(Default(), CandidateConfig{Transforms: []string{"nope"}}); err == nil {
		t.Error("unknown transform accepted")
	}
}

func TestCandidateSetGrowsWithDepth(t *testing.T) {
	p := Default()
	s1 := MustBuildCandidates(p, smallConfig(1)).Size()
	s2 := MustBuildCandidates(p, smallConfig(2)).Size()
	if s2 <= s1 {
		t.Errorf("depth 2 size %d not larger than depth 1 size %d", s2, s1)
	}
}

func TestCandidateSetNoFalsePositiveOnCleanTraffic(t *testing.T) {
	p := Default()
	cs := MustBuildCandidates(p, smallConfig(2))
	clean := []byte(strings.Repeat("utm_source=newsletter&id=123456&cb=0.7431985", 20))
	if got := cs.FindIn(clean); got != nil {
		t.Errorf("clean traffic matched tokens: %+v", got)
	}
}

func TestFindInBinaryToken(t *testing.T) {
	// Compressed (binary) tokens must match in raw payload bytes.
	p := Default()
	cs := MustBuildCandidates(p, CandidateConfig{
		MaxDepth:    1,
		Transforms:  []string{"gz"},
		MinTokenLen: 8,
	})
	blob := append([]byte("payload: "), MustApplyChain(p.Email, []string{"gz"})...)
	found := cs.FindIn(blob)
	ok := false
	for _, tok := range found {
		if tok.Label() == "gz" && tok.Field.Type == TypeEmail {
			ok = true
		}
	}
	if !ok {
		t.Errorf("gz token not found: %+v", found)
	}
}

func TestFullTransformSetDepth1(t *testing.T) {
	// Every registered transform should produce at least one email token.
	p := Default()
	cs := MustBuildCandidates(p, CandidateConfig{MaxDepth: 1})
	labels := map[string]bool{}
	for _, tok := range cs.Tokens() {
		if tok.Field.Type == TypeEmail {
			labels[tok.Label()] = true
		}
	}
	for _, name := range TransformNames() {
		// Transforms whose output is shorter than MinTokenLen (crc16:
		// 4 hex chars) are intentionally dropped, and base64url is
		// excluded from the default set (see CandidateConfig).
		if name == "base64url" {
			if labels[name] {
				t.Error("base64url token present in the default set")
			}
			continue
		}
		if out := MustApplyChain(p.Email, []string{name}); len(out) < 8 {
			continue
		}
		if !labels[name] {
			t.Errorf("no email token for transform %s", name)
		}
	}
	if !labels["plaintext"] {
		t.Error("no plaintext email token")
	}
}

func BenchmarkBuildCandidatesDepth2(b *testing.B) {
	p := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCandidates = MustBuildCandidates(p, CandidateConfig{MaxDepth: 2})
	}
}

var (
	benchCandidates *CandidateSet
	benchMatcher    *ahocorasick.Matcher
)

// BenchmarkAutomatonNew times the automaton compile alone, over the
// depth-2 candidate token values.
func BenchmarkAutomatonNew(b *testing.B) {
	tokens := MustBuildCandidates(Default(), CandidateConfig{MaxDepth: 2}).Tokens()
	values := make([]string, len(tokens))
	for i, t := range tokens {
		values[i] = t.Value
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMatcher = ahocorasick.NewStrings(values)
	}
}

func BenchmarkFindIn(b *testing.B) {
	p := Default()
	cs := MustBuildCandidates(p, CandidateConfig{MaxDepth: 2})
	sha := sha256.Sum256([]byte(p.Email))
	blob := bytes.Repeat([]byte("k=v&cache=173&src=page&"), 20)
	blob = append(blob, []byte("ud="+hex.EncodeToString(sha[:]))...)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs.FindIn(blob) == nil {
			b.Fatal("token lost")
		}
	}
}

// TestBuildCandidatesAllocBudget guards the cold depth-2 compile
// against per-token garbage creeping back: one uncached BuildCandidates
// must allocate under 128 MiB in total (it allocated 758 MiB before
// the compressors were pooled and the automaton flattened).
func TestBuildCandidatesAllocBudget(t *testing.T) {
	if raceEnabled {
		// The race detector drops pooled compressors on purpose, so
		// every fourth deflate or gz token builds a new writer and the
		// total measures the detector, not the compile.
		t.Skip("allocation budget does not hold under the race detector")
	}
	const budget = 128 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MustBuildCandidates(Default(), CandidateConfig{MaxDepth: 2})
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("depth-2 BuildCandidates allocated %.1f MiB", float64(got)/(1<<20))
	if got >= budget {
		t.Errorf("depth-2 BuildCandidates allocated %.1f MiB, budget %d MiB", float64(got)/(1<<20), budget>>20)
	}
}
