package main

import (
	"math"
	"sort"
)

// percentile returns the pct-th percentile (0–100) of values by linear
// interpolation between closest ranks; 0 for an empty sample. The input
// is not modified.
func percentile(values []float64, pct float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := pct / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method) — the
// rule the benchmark's acceptance uses. ok is false below two values.
func quartileSpread(values []float64) (spread float64, ok bool) {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > n-2 {
			lo = n - 2
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (quartile(3) - quartile(1)) / math.Abs(med), true
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
