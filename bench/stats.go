package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of an ascending
// series by linear interpolation between closest ranks; NaN when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// quartiles summarizes a per-round figure over a phase's rounds: a
// timing metric reports the median, and the quartiles printed beside it
// show how far the rounds disagree.
type quartiles struct {
	q1, median, q3 float64
	n              int
}

// summarize sorts a copy of values and returns its quartiles.
func summarize(values []float64) quartiles {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quartiles{
		q1:     percentile(s, 0.25),
		median: percentile(s, 0.5),
		q3:     percentile(s, 0.75),
		n:      len(s),
	}
}

func median(values []float64) float64 { return summarize(values).median }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio is a/b with 0/0 = 0, for hit ratios and per-interaction counts
// that are legitimately undefined on workloads that bypass the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
