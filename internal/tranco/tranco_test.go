package tranco

import (
	"math"
	"math/rand/v2"
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

// TestTailEntryPinned pins the derived tail entries for a few (seed,
// rank) pairs, shopping ranks included. Tail sites never leak, so no
// leak or table golden covers these bytes; a change to the derivation
// would move every universe run's dataset silently.
func TestTailEntryPinned(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want Entry
	}{
		{2021, Entry{Rank: 10001, Domain: "opalbase-r10001.co", Category: "health"}},
		{2021, Entry{Rank: 10097, Domain: "vistaport-r10097.org", Category: "education"}},
		{2021, Entry{Rank: 10088, Domain: "altomill-r10088.com", Category: "shopping"}},
		{7, Entry{Rank: 1, Domain: "opalisle-r1.com", Category: "business"}},
		{7, Entry{Rank: 97, Domain: "pixeledge-r97.com", Category: "shopping"}},
		{11, Entry{Rank: 123456, Domain: "zephyrjunction-r123456.de", Category: "travel"}},
		{3303, Entry{Rank: 999999, Domain: "pixelforge-r999999.org", Category: "news"}},
		{0, Entry{Rank: 42, Domain: "urbanyard-r42.co", Category: "technology"}},
		{18446744073709551615, Entry{Rank: 1000000, Domain: "fluxgate-r1000000.com", Category: "news"}},
	} {
		if got := TailEntry(c.seed, c.want.Rank); got != c.want {
			t.Errorf("TailEntry(%d, %d) = %+v, want %+v", c.seed, c.want.Rank, got, c.want)
		}
	}
}

// TestIntNMatchesRand is the differential pin for drawing the tail from
// a PCG held by value: over many seeds and bounds, a sequence of IntN
// draws equals the sequence rand.New(rand.NewPCG(s1, s2)).IntN returns.
// The bounds cover powers of two (the masked draw), odd and even
// values, values near 2^31, and values near 2^63, where the
// multiply-and-reject loop rejects often.
func TestIntNMatchesRand(t *testing.T) {
	bounds := []int{1, 2, 3, 4, 5, 7, 12, 16, 17, 40, 97, 1000, 1 << 20, 1<<20 + 1,
		1<<31 - 1, 1 << 31, 1<<31 + 1, 3 << 30, 1<<32 - 1, 1<<62 + 1, 3 << 61, math.MaxInt64}
	for seed := uint64(0); seed < 200; seed++ {
		s1, s2 := seed*0x9e3779b97f4a7c15, tailSalt^seed
		for _, n := range bounds {
			var p rand.PCG
			p.Seed(s1, s2)
			want := rand.New(rand.NewPCG(s1, s2))
			for draw := 0; draw < 8; draw++ {
				if got, w := IntN(&p, n), want.IntN(n); got != w {
					t.Fatalf("seeds (%#x, %#x), n %d, draw %d: IntN %d, rand.IntN %d", s1, s2, n, draw, got, w)
				}
			}
		}
	}
}
