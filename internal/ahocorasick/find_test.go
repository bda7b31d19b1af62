package ahocorasick

import "slices"

// Match reports one pattern occurrence.
type Match struct {
	// Pattern is the index of the matched pattern in the slice passed
	// to New.
	Pattern int
	// End is the byte offset just past the match in the scanned text.
	End int
}

// Find returns every occurrence of every pattern in text, in report
// order: the reference the tests hold the automaton's outputs to.
func (m *Matcher) Find(text []byte) []Match {
	var matches []Match
	s := int32(0)
	for i, b := range text {
		s = m.step(s, b)
		for _, p := range m.outputs(s) {
			if end := matchEnd(m, text, p, i); end >= 0 {
				matches = append(matches, Match{Pattern: int(p), End: end})
			}
		}
	}
	slices.SortFunc(matches, func(a, b Match) int { return m.compareFound(a.Pattern, a.End, b.Pattern, b.End) })
	return matches
}

// FindUniqueStringInto is FindUniqueInto for string input: the scan
// core's string instantiation, which the tests hold to the naive
// reference beside the []byte one.
func (m *Matcher) FindUniqueStringInto(data string, sc *Scratch, dst []int) []int {
	return findUniqueInto(m, data, sc, dst)
}
