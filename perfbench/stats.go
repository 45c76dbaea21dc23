package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest first.
// It stops at p95: a 10-second service run holds about 1000 requests, too
// few for p99 to keep ten samples beyond it at every seed, and a workload's
// tail must be read at the same percentile on every run.
var tailLadder = []float64{95, 90, 75}

// sample is a set of observations of one quantity, kept whole so any
// percentile can be taken at the end.
type sample []float64

func (s *sample) add(v float64) { *s = append(*s, v) }

func (s *sample) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest-rank position of the p-th percentile among n
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest value with at least p% of the samples at or below it. It is 0
// for an empty sample.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sorted()[rank(p, len(s))-1]
}

func (s sample) median() float64 { return s.percentile(50) }

// tail is the highest percentile of tailLadder that has at least minBeyond
// samples above its nearest rank, returned with that percentile. With too
// few samples for any of them it falls back to the median (pct 50), so a
// tail is never read off a handful of outliers.
func (s sample) tail() (value, pct float64) {
	n := len(s)
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return s.percentile(p), p
		}
	}
	return s.median(), 50
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}
