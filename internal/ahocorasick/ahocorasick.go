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
// The trie holds at most the first prefixCap bytes of each pattern.
// Candidate tokens are mostly hex/base64 text that shares little beyond
// its first few bytes, so deeper levels would be one chain of
// single-child states per pattern byte: a full trie of the depth-2
// candidate set has 683,205 states, the capped one 206,466. A longer
// pattern is reported where its capped prefix ends, once its remaining
// bytes are found to follow there.
//
// The automaton is a handful of flat, pointer-free arrays sized up
// front from the capped pattern length, so building it takes a fixed
// number of allocations however many states it has, and the garbage
// collector never scans them:
//
//   - States are numbered breadth first, so a state's children are
//     consecutive ids: the children of s are the ids in
//     [first[s], first[s+1]), and label[c] is the byte on the edge into
//     c. Children are laid out in byte order, so a state's outgoing
//     labels are one sorted span of label.
//   - The root, which every mismatch falls back to, and each state at
//     depth 1 get a dense 256-entry row instead, with the failure
//     transitions folded in, so a step from one of them is one load.
//     Candidate tokens share their first byte in a few dozen ways
//     (hex, base64 and e-mail alphabets), so the first level is where
//     a clean text spends most of its steps and where the linear child
//     scan would be longest; the depth-2 candidate set has 70 such
//     states, whose rows take 70 KB.
//   - Outputs live in one flat array: state s reports
//     out[outStart[s]:outStart[s+1]], its own patterns followed by
//     those of its failure target, so scanning never walks failure
//     chains to report.
//   - The patterns' bytes live back to back in one buffer, which gives
//     each pattern's length and a longer pattern's remaining bytes.
package ahocorasick

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
)

// prefixCap is the most bytes of a pattern the trie holds. At 24 bytes
// no more than two depth-2 candidate tokens share a trie string (at 16,
// up to 30 do), so a scan that reaches a state at the cap compares the
// remaining bytes of at most two patterns.
const prefixCap = 24

// Matcher is an immutable Aho-Corasick automaton. It is safe for
// concurrent use after construction.
type Matcher struct {
	// next[s<<8|b] is the state s moves to on byte b, for the root and
	// the depth-1 states s <= dense: the root's row (0: stay) and then
	// one row per depth-1 state, each a copy of the root's row with the
	// state's children written over it, as a depth-1 state fails to
	// the root.
	next []int32
	// dense is the last state with a row in next: the depth-1 states
	// are 1..dense, and deeper states step through first and label.
	dense int32
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
	// pat holds the patterns' bytes back to back: pattern p is
	// pat[patStart[p]:patStart[p+1]].
	pat      []byte
	patStart []int32
	// capLen is the most bytes of a pattern the trie holds.
	capLen int
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
func New(patterns [][]byte) *Matcher { return build(patterns, bytes.Compare, prefixCap) }

// NewStrings is New for string patterns.
func NewStrings(patterns []string) *Matcher { return build(patterns, strings.Compare, prefixCap) }

// build constructs the automaton over the first capLen bytes of each
// pattern, breadth first in one pass over the patterns sorted by their
// bytes. Each state stands for a run of the sorted order — the patterns
// sharing its prefix — so its children are that run split by the byte
// after the prefix, in byte order. A state at depth capLen has no
// children: every pattern left in its run ends there. Every state a
// failure link or an inherited output refers to is shallower, and
// therefore already built, when the state that needs it is reached.
func build[T text](patterns []T, compare func(a, b T) int, capLen int) *Matcher {
	m := &Matcher{numPatterns: len(patterns), capLen: capLen, patStart: make([]int32, len(patterns)+1)}
	total, trieBytes := 0, 0
	var order []int32
	for i, p := range patterns {
		total += len(p)
		m.patStart[i+1] = int32(total)
		if len(p) > 0 {
			trieBytes += min(len(p), capLen)
			order = append(order, int32(i))
		}
	}
	m.pat = make([]byte, 0, total)
	for _, p := range patterns {
		m.pat = append(m.pat, p...)
	}
	// Equal patterns stay in index order, so a state's own outputs of
	// one length are ascending by index.
	slices.SortFunc(order, func(a, b int32) int {
		if c := compare(patterns[a], patterns[b]); c != 0 {
			return c
		}
		return int(a - b)
	})

	// A trie over trieBytes bytes has at most trieBytes+1 states, and
	// one depth-1 state per distinct first byte.
	maxStates := trieBytes + 1
	depth1 := 0
	for j, p := range order {
		if j == 0 || patterns[p][0] != patterns[order[j-1]][0] {
			depth1++
		}
	}
	m.next = make([]int32, (depth1+1)<<8)
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
			if depth == 1 {
				copy(m.next[s<<8:(s+1)<<8], m.next[:256])
			}
			m.outStart[s] = int32(len(m.out))
			// Patterns ending here sort first in the run; at the cap
			// the whole run ends here.
			j := lo[s]
			for ; j < hi[s] && (depth == capLen || len(patterns[order[j]]) == depth); j++ {
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
				if s != 0 {
					m.fail[c] = m.step(m.fail[s], b)
				}
				if depth <= 1 {
					m.next[int(s)<<8|int(b)] = c
				}
				j = k
			}
		}
		if depth == 0 {
			// The depth-1 states are numbered now; their rows are
			// filled as their level is built, and no step reaches one
			// of them before that: a depth-2 state's failure target is
			// the root's child on its byte.
			m.dense = n - 1
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

// step advances the automaton from state s on byte b: a state deeper
// than the first level scans its children and falls back along its
// failure links until a child matches or a dense row answers.
func (m *Matcher) step(s int32, b byte) int32 {
	for s > m.dense {
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
	return m.next[int(s)<<8|int(b)]
}

// outputs returns the patterns state s reports.
func (m *Matcher) outputs(s int32) []int32 {
	return m.out[m.outStart[s]:m.outStart[s+1]]
}

// patLen returns the length of pattern p.
func (m *Matcher) patLen(p int) int { return int(m.patStart[p+1] - m.patStart[p]) }

// matchEnd returns the end offset of the occurrence of pattern p, an
// output of the state the scan reached at data[i], or -1 when p is
// longer than the trie holds and its remaining bytes do not follow.
// Only a state at the cap reports such a pattern, so its occurrence
// starts at i+1-capLen.
func matchEnd[T text](m *Matcher, data T, p int32, i int) int {
	n := m.patLen(int(p))
	if n <= m.capLen {
		return i + 1
	}
	end := i + 1 - m.capLen + n
	if end > len(data) {
		return -1
	}
	rest := m.pat[int(m.patStart[p])+m.capLen : m.patStart[p+1]]
	for k, b := range rest {
		if data[i+1+k] != b {
			return -1
		}
	}
	return end
}

// compareFound compares found patterns a and b, first found ending at
// endA and endB, in the order every scan reports: by end offset, then
// longer pattern first, then lower index.
func (m *Matcher) compareFound(a, endA, b, endB int) int {
	if c := cmp.Compare(endA, endB); c != 0 {
		return c
	}
	if c := cmp.Compare(m.patLen(b), m.patLen(a)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// sortFound puts the distinct patterns a scan found in report order,
// given where each first ended. A pattern longer than the trie is found
// where its capped prefix ends, before its own end, so the scan's order
// can differ.
func (m *Matcher) sortFound(found []int, end func(p int) int) {
	if len(found) < 2 {
		return
	}
	slices.SortFunc(found, func(a, b int) int { return m.compareFound(a, end(a), b, end(b)) })
}

// FindUnique returns the set of distinct pattern indices occurring in
// text, in first-match order.
func (m *Matcher) FindUnique(text []byte) []int {
	var found []int
	var ends map[int]int // first-match end of each found pattern
	s := int32(0)
	for i, b := range text {
		s = m.step(s, b)
		if m.outStart[s+1] == m.outStart[s] {
			continue
		}
		for _, p := range m.outputs(s) {
			if _, ok := ends[int(p)]; ok {
				continue
			}
			if end := matchEnd(m, text, p, i); end >= 0 {
				if ends == nil {
					ends = make(map[int]int)
				}
				ends[int(p)] = end
				found = append(found, int(p))
			}
		}
	}
	m.sortFound(found, func(p int) int { return ends[p] })
	return found
}

// Scratch is reusable per-goroutine dedup state for FindUniqueInto:
// generation-stamped arrays sized to the automaton's pattern count, so
// clearing between scans is a counter bump, not an allocation. The zero
// value is ready to use; a Scratch must not be shared between
// concurrent scans.
type Scratch struct {
	stamp []uint32
	// end[p] is where pattern p's first match ended, for p stamped in
	// the current generation.
	end []int
	gen uint32
}

// findUniqueInto is the allocation-free FindUnique core, generic over
// string and []byte inputs.
func findUniqueInto[T text](m *Matcher, data T, sc *Scratch, dst []int) []int {
	if len(sc.stamp) < m.numPatterns {
		sc.stamp = make([]uint32, m.numPatterns)
		sc.end = make([]int, m.numPatterns)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 { // wrapped: stamps from 2^32 scans ago could alias
		clear(sc.stamp)
		sc.gen = 1
	}
	found := len(dst)
	s := int32(0)
	for i := 0; i < len(data); i++ {
		s = m.step(s, data[i])
		if m.outStart[s+1] == m.outStart[s] {
			continue
		}
		for _, p := range m.outputs(s) {
			if sc.stamp[p] == sc.gen {
				continue
			}
			if end := matchEnd(m, data, p, i); end >= 0 {
				sc.stamp[p] = sc.gen
				sc.end[p] = end
				dst = append(dst, int(p))
			}
		}
	}
	m.sortFound(dst[found:], func(p int) int { return sc.end[p] })
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
		// Most bytes reach a state with no outputs: test that before
		// slicing out.
		if m.outStart[s+1] == m.outStart[s] {
			continue
		}
		for _, p := range m.outputs(s) {
			if matchEnd(m, data, p, i) >= 0 {
				return true
			}
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
