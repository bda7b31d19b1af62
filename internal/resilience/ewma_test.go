package resilience

import (
	"testing"
	"time"
)

// TestEWMA: the zero value is ready, the first sample seeds the
// average, each later one weighs 0.3, and a negative one is ignored.
func TestEWMA(t *testing.T) {
	var e EWMA
	if _, ok := e.Value(); ok {
		t.Fatal("zero EWMA reports a value before any sample")
	}
	for _, step := range []struct {
		sample, want time.Duration
	}{
		{-time.Second, 0},                    // ignored: still no value
		{10 * time.Second, 10 * time.Second}, // seeds
		{20 * time.Second, 13 * time.Second}, // 0.3*20s + 0.7*10s
		{-time.Hour, 13 * time.Second},       // ignored
		{0, 9100 * time.Millisecond},         // 0.7*13s
	} {
		e.Record(step.sample)
		d, ok := e.Value()
		if ok != (step.want != 0) {
			t.Fatalf("after %v: ok = %v", step.sample, ok)
		}
		// Float rounding may leave the average a nanosecond off.
		if diff := d - step.want; diff < -time.Nanosecond || diff > time.Nanosecond {
			t.Fatalf("after %v: average %v, want %v", step.sample, d, step.want)
		}
	}
}
