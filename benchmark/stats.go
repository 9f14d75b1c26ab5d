package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of an ascending slice,
// interpolating linearly between the two nearest samples — so on the
// handful of solves a run times, p90 leans on the two slowest rather
// than being the slowest alone.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// samplesBeyond counts the samples strictly above the p-quantile's
// position — the figure that says whether a tail percentile is resolved
// (the choosing-metrics guide asks for at least ten).
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(p*float64(n-1)))
}

// median sorts v in place and returns its middle value.
func median(v []float64) float64 {
	sort.Float64s(v)
	return percentile(v, 0.5)
}
