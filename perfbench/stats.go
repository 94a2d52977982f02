package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer than ten samples is noise.
const minBeyond = 10

// tail is a latency summary: the median and the highest requested
// percentile the sample supports, with the sample count behind both.
type tail struct {
	N   int     // samples
	P50 float64 // median
	Pct float64 // the percentile actually reported, in (0,1); 0 if none qualifies
	At  float64 // value at Pct
}

// supportedPercentile returns the highest percentile p ≤ want for which
// at least minBeyond of n samples lie strictly beyond the p-quantile's
// rank, i.e. n·(1−p) ≥ minBeyond. It returns 0 when n < minBeyond+1.
func supportedPercentile(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	limit := 1 - float64(minBeyond)/float64(n)
	if want <= limit {
		return want
	}
	return limit
}

// quantile returns the q-quantile of sorted samples by linear
// interpolation between closest ranks (the same rule as numpy's default).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// summarize sorts a copy of samples and reports the median and the tail
// at the highest percentile up to want that the sample supports.
func summarize(samples []float64, want float64) tail {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := tail{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50 = quantile(s, 0.5)
	if p := supportedPercentile(len(s), want); p > 0 {
		t.Pct = p
		t.At = quantile(s, p)
	}
	return t
}

// median of samples (NaN when empty).
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
