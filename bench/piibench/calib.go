package main

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"time"
)

// A shared machine slows down and speeds up by tens of percent over
// minutes as its neighbours' load changes, and every process on it
// slows together. Each timed run therefore interleaves short bursts of
// a fixed kernel with its units and reports its times scaled to the
// speed at which one burst takes calibRef: value × calibRef / (median
// burst of the run). The kernel is standard library only, so no change
// to piileak can move it, and it is shaped like the candidate compile
// that dominates set-up (hash chains over strings, a seen-set, a
// growing slice, a sort), which makes its slowdowns track the programs'
// own. The raw times are printed beside the scaled ones as raw.*
// metrics, and the bursts as calib_ms.
const (
	calibRef    = 50 * time.Millisecond
	burstKernel = 10 // kernel calls per burst, about 50 ms on an idle core
)

// calibMetrics are the time metrics the calibration scales.
var calibMetrics = []string{"setup_s", "wall_s", "cpu_s"}

var calibSink int

// calibKernel is one fixed unit of CPU and allocation work.
func calibKernel() {
	seen := make(map[string]bool)
	var toks []string
	for i := 0; i < 3000; i++ {
		v := []byte("user" + strconv.Itoa(i) + "@example.com")
		for d := 0; d < 3; d++ {
			s := sha256.Sum256(v)
			m := md5.Sum(s[:])
			v = []byte(hex.EncodeToString(m[:]))
			if k := string(v); !seen[k] {
				seen[k] = true
				toks = append(toks, k)
			}
		}
	}
	sort.Strings(toks)
	calibSink += len(toks)
}

// burst times n calibration bursts and records each. A burst alone
// reads the machine over 50 ms; the run's median needs about thirty of
// them to settle, so workloads with few units take several per unit.
func (o *outcome) burst(n int) {
	for b := 0; b < n; b++ {
		start := now()
		for i := 0; i < burstKernel; i++ {
			calibKernel()
		}
		o.add("calib_ms", "ms", ms(since(start)))
	}
}

// calibrate scales the run's time metrics by its bursts, keeping the
// measured values as raw.<name>.
func (o *outcome) calibrate() {
	c := o.metrics["calib_ms"]
	if c == nil {
		return
	}
	f := ms(calibRef) / summarize(c.xs).Median
	for _, name := range calibMetrics {
		s := o.metrics[name]
		if s == nil {
			continue
		}
		o.metrics["raw."+name] = &series{unit: s.unit, xs: s.xs}
		scaled := make([]float64, len(s.xs))
		for i, x := range s.xs {
			scaled[i] = x * f
		}
		o.metrics[name] = &series{unit: s.unit, xs: scaled}
	}
}
