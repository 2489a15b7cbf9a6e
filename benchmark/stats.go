package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as measured: with fewer, the figure is one or two outliers, not
// a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, the sample count, and whether at least minBeyond samples lie
// beyond it. The input is not modified. An empty input yields 0.
func percentile(samples []float64, p float64) (v float64, n int, supported bool) {
	n = len(samples)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n, n-rank >= minBeyond
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty input.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(samples []float64) float64 {
	m := 0.0
	for _, v := range samples {
		if v > m {
			m = v
		}
	}
	return m
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
