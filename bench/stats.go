package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// lowerQuartile and upperQuartile are the nearest-rank 25th and 75th
// percentiles of a run's repeated measurements.
func lowerQuartile(v []float64) float64 { return percentile(sortedCopy(v), 25) }
func upperQuartile(v []float64) float64 { return percentile(sortedCopy(v), 75) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailPercentile is the highest percentile a sample of n supports: the
// highest of the usual ones with at least ten samples beyond it, or 50.
func tailPercentile(n int) float64 {
	for _, t := range []struct{ p, beyondPerMille float64 }{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}} {
		if float64(n)*t.beyondPerMille >= 10*1000 {
			return t.p
		}
	}
	return 50
}

// ratio is a/b, and 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
