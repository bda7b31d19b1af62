package main

import (
	"sort"
	"time"
)

// now and since are the benchmark's only wall-clock reads: measuring
// wall time is its purpose, and funnelling the reads through one pair
// keeps the determinism analyzer's exception in one place.
func now() time.Time { return time.Now() } //lint:allow detrand the benchmark measures wall time by design

func since(t time.Time) time.Duration { return now().Sub(t) }

// summary is a sample set's median and quartiles.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so the printed quartiles match the spread arithmetic
// documented in bench/README.md.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	var q [3]float64
	ld := len(s)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: q[1], Q1: q[0], Q3: q[2], N: ld}
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
