package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything: with fewer, the "percentile" is
// just one of the last few samples.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank returns the 1-based nearest-rank index of percentile p over n
// samples: the smallest rank r with r/n >= p/100.
func rank(p float64, n int) int {
	// The epsilon keeps e.g. 95% of 20 at rank 19, not 20, when the
	// float product lands a hair above the integer.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (NaN when
// xs is empty). Infinite samples (failed requests) sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond reports how many of n samples lie strictly above the
// nearest-rank p-th percentile's rank.
func beyond(p float64, n int) int { return n - rank(p, n) }

// tailPercentile returns the highest candidate percentile with at
// least minBeyond samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && beyond(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// quartiles returns Q1, Q2 and Q3 of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads computed here match the ones a
// Python script computes from the same result lines. One sample is its
// own quartiles; no samples give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
