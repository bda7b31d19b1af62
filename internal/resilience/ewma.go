package resilience

import (
	"sync"
	"time"
)

// ewmaAlpha is EWMA's smoothing factor: each new sample weighs 0.3.
const ewmaAlpha = 0.3

// EWMA is an exponentially weighted moving average of durations, safe
// for concurrent use; the zero value is ready. piiserve's admission
// control feeds it completed job durations and serves the smoothed
// value as the Retry-After hint when shedding load — a recency-weighted
// estimate that tracks the current workload instead of averaging over
// the server's lifetime.
type EWMA struct {
	mu    sync.Mutex
	value time.Duration
	n     int
}

// Record folds one sample in. The first sample seeds the average; a
// negative one is ignored.
func (e *EWMA) Record(d time.Duration) {
	if d < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		e.value = d
	} else {
		e.value = time.Duration(ewmaAlpha*float64(d) + (1-ewmaAlpha)*float64(e.value))
	}
	e.n++
}

// Value returns the current average; ok is false until the first
// sample lands.
func (e *EWMA) Value() (d time.Duration, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value, e.n > 0
}
