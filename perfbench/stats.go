package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail estimate resting on fewer is noise.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples. It
// refuses a percentile with fewer than minTail samples beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := nearestRank(n, p)
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*p, minTail, n-rank, n)
	}
	s := sortedCopy(samples)
	return s[rank-1], nil
}

// nearestRank is the 1-based rank of the p-quantile among n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tail is a tail-latency estimate together with the percentile it
// actually is and the sample count behind it.
type tail struct {
	P     float64 // the percentile reported, in (0,1)
	Value float64
	N     int
}

// tailPercentile returns the want-quantile when the sample supports it,
// otherwise the highest percentile that still has minTail samples beyond
// it. ok is false when not even that exists (fewer than minTail+1 samples).
func tailPercentile(samples []float64, want float64) (tail, bool) {
	n := len(samples)
	if n <= minTail {
		return tail{N: n}, false
	}
	p := want
	if nearestRank(n, p) > n-minTail {
		p = float64(n-minTail) / float64(n)
	}
	v, err := percentile(samples, p)
	if err != nil {
		return tail{N: n}, false
	}
	return tail{P: p, Value: v, N: n}, true
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
