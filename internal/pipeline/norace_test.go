//go:build !race

package pipeline

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
const raceEnabled = false
