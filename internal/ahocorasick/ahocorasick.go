// Package ahocorasick implements the Aho-Corasick multi-pattern string
// matching automaton.
//
// The PII leak detector compiles the persona's candidate-token set —
// tens to hundreds of thousands of encoded/hashed PII strings (§3.1) —
// into one automaton and scans every third-party request surface in a
// single pass, instead of running len(tokens) substring searches per
// request. Benchmark A2 in the top-level harness quantifies the
// difference.
//
// The automaton is a handful of flat, pointer-free arrays sized up
// front from the total pattern length, so building it takes a fixed
// number of allocations however many states it has, and the garbage
// collector never scans them. Candidate tokens are mostly hex/base64
// text with little prefix sharing, so state counts approach total
// pattern bytes and per-state overhead is what memory costs:
//
//   - States are numbered breadth first, so a state's children are
//     consecutive ids: the children of s are the ids in
//     [first[s], first[s+1]), and label[c] is the byte on the edge into
//     c. Children are laid out in byte order, so a state's outgoing
//     labels are one sorted span of label.
//   - The root, which every mismatch falls back to, gets a dense
//     256-entry row instead.
//   - Outputs live in one flat array: state s reports
//     out[outStart[s]:outStart[s+1]], its own patterns by index followed
//     by those of its failure target, so scanning never walks failure
//     chains to report.
package ahocorasick

import (
	"bytes"
	"slices"
	"strings"
)

// Matcher is an immutable Aho-Corasick automaton. It is safe for
// concurrent use after construction.
type Matcher struct {
	// root[b] is the state the root moves to on byte b (0: stay).
	root [256]int32
	// first has one entry per state plus a sentinel: the children of s
	// are the states first[s] .. first[s+1]-1.
	first []int32
	// label[c] is the byte on the edge into state c (unused for 0).
	label []byte
	// fail[s] is s's failure link: the state of its longest proper
	// suffix that is also a trie prefix.
	fail []int32
	// outStart has one entry per state plus a sentinel; state s reports
	// out[outStart[s]:outStart[s+1]].
	outStart []int32
	out      []int32
	// numPatterns is the number of patterns, which sizes a Scratch.
	numPatterns int
}

// text abstracts the two pattern and scan representations so the build
// and scan loops are written once; indexing a string yields bytes
// without conversion.
type text interface{ ~string | ~[]byte }

// New builds an automaton over the given patterns. Empty patterns are
// permitted but never match. Duplicate patterns each report their own
// index.
func New(patterns [][]byte) *Matcher { return build(patterns, bytes.Compare) }

// NewStrings is New for string patterns; it does not copy them.
func NewStrings(patterns []string) *Matcher { return build(patterns, strings.Compare) }

// build constructs the automaton breadth first in one pass over the
// patterns sorted by their bytes. Each state stands for a run of the
// sorted order — the patterns sharing its prefix — so its children are
// that run split by the byte after the prefix, in byte order. Every
// state a failure link or an inherited output refers to is shallower,
// and therefore already built, when the state that needs it is reached.
func build[T text](patterns []T, compare func(a, b T) int) *Matcher {
	m := &Matcher{numPatterns: len(patterns)}
	total := 0
	var order []int32
	for i, p := range patterns {
		if len(p) > 0 {
			total += len(p)
			order = append(order, int32(i))
		}
	}
	// Equal patterns stay in index order, so a state's own outputs are
	// ascending by index.
	slices.SortFunc(order, func(a, b int32) int {
		if c := compare(patterns[a], patterns[b]); c != 0 {
			return c
		}
		return int(a - b)
	})

	// A trie over total pattern bytes has at most total+1 states.
	maxStates := total + 1
	m.first = make([]int32, maxStates+1)
	m.label = make([]byte, maxStates)
	m.fail = make([]int32, maxStates)
	m.outStart = make([]int32, maxStates+1)
	m.out = make([]int32, 0, len(order))
	// lo[s], hi[s] bound the run of order sharing s's prefix.
	lo := make([]int32, maxStates)
	hi := make([]int32, maxStates)
	hi[0] = int32(len(order))

	n := int32(1)
	depth := 0
	for levelStart, levelEnd := int32(0), int32(1); levelStart < levelEnd; depth++ {
		for s := levelStart; s < levelEnd; s++ {
			m.first[s] = n
			m.outStart[s] = int32(len(m.out))
			// Patterns ending here sort first in the run.
			j := lo[s]
			for ; j < hi[s] && len(patterns[order[j]]) == depth; j++ {
				m.out = append(m.out, order[j])
			}
			if s != 0 {
				f := m.fail[s]
				m.out = append(m.out, m.out[m.outStart[f]:m.outStart[f+1]]...)
			}
			// Children: the rest of the run split by the next byte.
			for j < hi[s] {
				b := patterns[order[j]][depth]
				k := j + 1
				for k < hi[s] && patterns[order[k]][depth] == b {
					k++
				}
				c := n
				n++
				m.label[c], lo[c], hi[c] = b, j, k
				if s == 0 {
					m.root[b] = c
				} else {
					m.fail[c] = m.step(m.fail[s], b)
				}
				j = k
			}
		}
		levelStart, levelEnd = levelEnd, n
	}
	m.first[n] = n
	m.outStart[n] = int32(len(m.out))
	// Trim by length only: reallocating to fit would copy the largest
	// arrays for a few percent of slack.
	m.first = m.first[:n+1]
	m.label = m.label[:n]
	m.fail = m.fail[:n]
	m.outStart = m.outStart[:n+1]
	return m
}

// step advances the automaton from state s on byte b.
func (m *Matcher) step(s int32, b byte) int32 {
	for s != 0 {
		lo, hi := m.first[s], m.first[s+1]
		for c := lo; c < hi; c++ {
			if l := m.label[c]; l >= b {
				if l == b {
					return c
				}
				break
			}
		}
		s = m.fail[s]
	}
	return m.root[b]
}

// outputs returns the patterns state s reports.
func (m *Matcher) outputs(s int32) []int32 {
	return m.out[m.outStart[s]:m.outStart[s+1]]
}

// FindUnique returns the set of distinct pattern indices occurring in
// text, in first-match order. It is the detector's hot path.
func (m *Matcher) FindUnique(text []byte) []int {
	var found []int
	var seen map[int]bool
	s := int32(0)
	for _, b := range text {
		s = m.step(s, b)
		for _, p := range m.outputs(s) {
			if seen == nil {
				seen = make(map[int]bool)
			}
			if !seen[int(p)] {
				seen[int(p)] = true
				found = append(found, int(p))
			}
		}
	}
	return found
}

// Scratch is reusable per-goroutine dedup state for FindUniqueInto: a
// generation-stamped array sized to the automaton's pattern count, so
// clearing between scans is a counter bump, not an allocation. The zero
// value is ready to use; a Scratch must not be shared between
// concurrent scans.
type Scratch struct {
	stamp []uint32
	gen   uint32
}

// findUniqueInto is the allocation-free FindUnique core, generic over
// string and []byte inputs.
func findUniqueInto[T text](m *Matcher, data T, sc *Scratch, dst []int) []int {
	if len(sc.stamp) < m.numPatterns {
		sc.stamp = make([]uint32, m.numPatterns)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 { // wrapped: stamps from 2^32 scans ago could alias
		clear(sc.stamp)
		sc.gen = 1
	}
	s := int32(0)
	for i := 0; i < len(data); i++ {
		s = m.step(s, data[i])
		for _, p := range m.outputs(s) {
			if sc.stamp[p] != sc.gen {
				sc.stamp[p] = sc.gen
				dst = append(dst, int(p))
			}
		}
	}
	return dst
}

// FindUniqueInto appends the distinct pattern indices occurring in text
// to dst, in first-match order, reusing sc for dedup state. It returns
// the extended slice and allocates only when dst's capacity is
// exceeded (or on sc's first use). The result order and content match
// FindUnique exactly.
func (m *Matcher) FindUniqueInto(data []byte, sc *Scratch, dst []int) []int {
	return findUniqueInto(m, data, sc, dst)
}

// contains is the shared Contains core, generic over string and []byte.
func contains[T text](m *Matcher, data T) bool {
	s := int32(0)
	for i := 0; i < len(data); i++ {
		s = m.step(s, data[i])
		if m.outStart[s+1] > m.outStart[s] {
			return true
		}
	}
	return false
}

// Contains reports whether any pattern occurs in text.
func (m *Matcher) Contains(text []byte) bool { return contains(m, text) }

// ContainsString is Contains for string input, avoiding the []byte
// conversion copy. It allocates nothing.
func (m *Matcher) ContainsString(s string) bool { return contains(m, s) }

// NumStates returns the number of automaton states (trie nodes), which the
// candidate-set ablation reports as a memory proxy.
func (m *Matcher) NumStates() int { return len(m.fail) }
