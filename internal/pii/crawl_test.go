package pii_test

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/webgen"
)

// naiveFind returns the indices of the tokens occurring in data, found
// with strings.Index, in the automaton's report order: by the end of
// each token's first occurrence, then longer token first, then lower
// index.
func naiveFind(tokens []pii.Token, data string) []int {
	var found []int
	ends := map[int]int{}
	for i, t := range tokens {
		if j := strings.Index(data, t.Value); j >= 0 {
			found = append(found, i)
			ends[i] = j + len(t.Value)
		}
	}
	slices.SortFunc(found, func(a, b int) int {
		if c := cmp.Compare(ends[a], ends[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(len(tokens[b].Value), len(tokens[a].Value)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return found
}

// TestCandidateScanMatchesNaiveOnCrawl holds the depth-2 candidate
// automaton to a strings.Index search over all its tokens on every
// distinct request surface of a SmallConfig(7) crawl: FindInto's tokens
// and their order, and Contains. The detect package's legacy oracle
// scans through the same automaton, so only this comparison catches a
// fault in it on real tokens and traffic.
func TestCandidateScanMatchesNaiveOnCrawl(t *testing.T) {
	eco, err := webgen.Generate(webgen.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	cs := pii.MustBuildCandidates(eco.Persona, pii.CandidateConfig{MaxDepth: 2})
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tokens := cs.Tokens()
	seen := map[string]bool{}
	var sc pii.Scratch
	var got []int
	leaky := 0
	for _, c := range ds.Successes() {
		for i := range c.Records {
			for _, sf := range httpmodel.Surfaces(&c.Records[i].Request) {
				data := string(sf.Data)
				if seen[data] {
					continue
				}
				seen[data] = true
				want := naiveFind(tokens, data)
				got = cs.FindInto(sf.Data, &sc, got[:0])
				if len(got) > 0 || len(want) > 0 {
					leaky++
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("site %s surface %q: FindInto = %v, want %v", c.Domain, data, got, want)
					}
				}
				if has := len(want) > 0; cs.Contains(sf.Data) != has || cs.ContainsString(data) != has {
					t.Fatalf("site %s surface %q: Contains/ContainsString = %v/%v, want %v",
						c.Domain, data, cs.Contains(sf.Data), cs.ContainsString(data), has)
				}
			}
		}
	}
	t.Logf("%d distinct surfaces, %d with tokens", len(seen), leaky)
	if leaky == 0 {
		t.Fatal("no surface holds a token; the comparison is vacuous")
	}
}
