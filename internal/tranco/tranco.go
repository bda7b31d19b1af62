// Package tranco generates the deterministic ranked site list standing in
// for the real Tranco top list plus the FortiGuard category feed (§3.2).
//
// The real study took the Tranco top 10,000, classified sites with
// FortiGuard Web Filtering, and kept the 404 shopping sites. This
// substitute reproduces that selection pipeline over synthetic domains:
// ranks, weighted TLDs, category labels with a fixed shopping quota, and
// rank-ordered selection.
package tranco

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strconv"
)

// Entry is one ranked, categorized site.
type Entry struct {
	Rank     int    `json:"rank"`
	Domain   string `json:"domain"`
	Category string `json:"category"`
}

// List is a generated ranking.
type List struct {
	Entries []Entry
}

// Categories in the synthetic FortiGuard-style feed.
var Categories = []string{
	"shopping", "news", "social", "technology", "finance",
	"entertainment", "education", "travel", "health", "sports",
	"business", "reference",
}

// CategoryShopping is the category the study selects (§3.2).
const CategoryShopping = "shopping"

var namePrefixes = []string{
	"urban", "nova", "prime", "zen", "blue", "swift", "lumen", "terra",
	"alto", "vista", "echo", "polar", "cedar", "ember", "flux", "haven",
	"iris", "koi", "lotus", "mira", "nimbus", "opal", "pixel", "quartz",
	"rivet", "sol", "tidal", "umber", "vela", "willow", "xenon", "yonder",
	"zephyr", "aster", "brio", "coral", "drift", "eden", "fable", "grove",
}

var nameSuffixes = []string{
	"market", "store", "mart", "goods", "hub", "base", "port", "works",
	"lane", "cart", "deal", "trade", "supply", "forge", "nest", "loop",
	"press", "wire", "beam", "stack", "dock", "field", "point", "crest",
	"mill", "path", "gate", "yard", "bay", "ridge", "peak", "cove",
	"bloom", "craft", "den", "edge", "flow", "glen", "isle", "junction",
}

var tlds = []string{
	"com", "com", "com", "com", "com", "net", "org", "shop", "store",
	"co.jp", "co.uk", "com.au", "io", "co", "jp", "de", "fr",
}

// Generate builds a deterministic top-n list for the given seed. Exactly
// shoppingQuota entries in the list carry the shopping category, spread
// across ranks the way a real category feed would be (rank-independent).
func Generate(seed uint64, n, shoppingQuota int) *List {
	if shoppingQuota > n {
		panic("tranco: shopping quota exceeds list size")
	}
	rng := rand.New(rand.NewPCG(seed, 0x7261636f)) // "raco"

	entries := make([]Entry, n)
	seen := make(map[string]bool, n)
	for i := range entries {
		var domain string
		for attempt := 0; ; attempt++ {
			p := namePrefixes[rng.IntN(len(namePrefixes))]
			s := nameSuffixes[rng.IntN(len(nameSuffixes))]
			tld := tlds[rng.IntN(len(tlds))]
			domain = p + s + "." + tld
			if attempt > 2 {
				domain = fmt.Sprintf("%s%s%d.%s", p, s, rng.IntN(90)+10, tld)
			}
			if !seen[domain] {
				break
			}
		}
		seen[domain] = true
		entries[i] = Entry{Rank: i + 1, Domain: domain}
	}

	// Category assignment: pick shoppingQuota distinct positions for
	// shopping, everything else gets a weighted non-shopping category.
	perm := rng.Perm(n)
	for _, idx := range perm[:shoppingQuota] {
		entries[idx].Category = CategoryShopping
	}
	others := Categories[1:]
	for i := range entries {
		if entries[i].Category == "" {
			entries[i].Category = others[rng.IntN(len(others))]
		}
	}
	return &List{Entries: entries}
}

// tailSalt keys the per-rank PCG streams of the long tail, independent
// of the head list's stream so extending the universe can never perturb
// the generated head.
const tailSalt = 0x7461696c // "tail"

// TailShoppingModulus spaces the shopping category through the long
// tail: tail ranks divisible by it are shopping, everything else draws
// a weighted non-shopping category. ~1% keeps background shopping
// present at every scale without making million-site universes
// crawl-heavy.
const TailShoppingModulus = 97

// TailEntry derives the ranked entry for one long-tail rank as a pure
// function of (seed, rank): an independent PCG stream per rank, so the
// same entry comes back byte-identical regardless of access order,
// subsetting, or which shard asks. Tail domains embed a "-r<rank>"
// marker; head domains are hyphen-free, so the two namespaces cannot
// collide and tail domains are unique by construction. A study keeps
// every crawled domain, so the domain is the one allocation: the PCG is
// held by value and drawn through IntN, and the rank's digits are
// formatted on the stack.
func TailEntry(seed uint64, rank int) Entry {
	var rng rand.PCG
	rng.Seed(seed, tailSalt^uint64(rank))
	p := namePrefixes[IntN(&rng, len(namePrefixes))]
	s := nameSuffixes[IntN(&rng, len(nameSuffixes))]
	tld := tlds[IntN(&rng, len(tlds))]
	category := Categories[1:][IntN(&rng, len(Categories)-1)]
	if rank%TailShoppingModulus == 0 {
		category = CategoryShopping
	}
	var digits [20]byte
	return Entry{
		Rank:     rank,
		Domain:   p + s + "-r" + string(strconv.AppendInt(digits[:0], int64(rank), 10)) + "." + tld,
		Category: category,
	}
}

// IntN returns a draw in [0, n) from p, the one math/rand/v2's
// rand.New(p).IntN(n) returns, for a positive n. It is a local copy of
// that algorithm (a power of two masks one 64-bit draw; any other n
// takes Lemire's multiply-and-reject, whose rare rejections draw
// again), so a PCG held by value is drawn from without the two heap
// allocations a Rand costs, and the universe tail does not depend on
// Rand's algorithms staying the same across Go releases. math/rand/v2
// draws the same numbers on 32-bit platforms.
func IntN(p *rand.PCG, n int) int {
	if n <= 0 {
		panic("tranco: IntN of a non-positive bound")
	}
	u := uint64(n)
	if u&(u-1) == 0 {
		return int(p.Uint64() & (u - 1))
	}
	hi, lo := bits.Mul64(p.Uint64(), u)
	if lo < u {
		thresh := -u % u
		for lo < thresh {
			hi, lo = bits.Mul64(p.Uint64(), u)
		}
	}
	return int(hi)
}

// Shopping returns the shopping-category entries in rank order.
func (l *List) Shopping() []Entry {
	var out []Entry
	for _, e := range l.Entries {
		if e.Category == CategoryShopping {
			out = append(out, e)
		}
	}
	return out
}
