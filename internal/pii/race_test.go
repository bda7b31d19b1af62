//go:build race

package pii

// raceEnabled reports whether the test binary runs under the race
// detector, which makes sync.Pool drop a random share of its Puts.
const raceEnabled = true
