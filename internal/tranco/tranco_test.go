package tranco

import (
	"reflect"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 1000, 40)
	b := Generate(42, 1000, 40)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different lists")
	}
	c := Generate(43, 1000, 40)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical lists")
	}
}

func TestGenerateSizeAndRanks(t *testing.T) {
	l := Generate(1, 500, 20)
	if len(l.Entries) != 500 {
		t.Fatalf("len(Entries) = %d", len(l.Entries))
	}
	for i, e := range l.Entries {
		if e.Rank != i+1 {
			t.Fatalf("entry %d has rank %d", i, e.Rank)
		}
		if e.Domain == "" || !strings.Contains(e.Domain, ".") {
			t.Fatalf("entry %d has bad domain %q", i, e.Domain)
		}
		if e.Category == "" {
			t.Fatalf("entry %d has no category", i)
		}
	}
}

func TestGenerateUniqueDomains(t *testing.T) {
	l := Generate(7, 10000, 404)
	seen := map[string]bool{}
	for _, e := range l.Entries {
		if seen[e.Domain] {
			t.Fatalf("duplicate domain %q", e.Domain)
		}
		seen[e.Domain] = true
	}
}

func TestShoppingQuotaExact(t *testing.T) {
	l := Generate(7, 10000, 404)
	shopping := l.Shopping()
	if len(shopping) != 404 {
		t.Fatalf("shopping sites = %d, want 404", len(shopping))
	}
	// Rank order preserved.
	for i := 1; i < len(shopping); i++ {
		if shopping[i].Rank <= shopping[i-1].Rank {
			t.Fatal("shopping entries not in rank order")
		}
	}
}

func TestQuotaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized quota did not panic")
		}
	}()
	Generate(1, 10, 11)
}
