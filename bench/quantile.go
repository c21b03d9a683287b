package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is an exact latency summary of raw samples. Every quantile is
// computed from the sorted samples themselves (linear interpolation
// between the two closest ranks), never from histogram buckets, and the
// sample count travels with it.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// Tail names the highest of p50/p90/p99/p99.9 that has at least
	// minBeyond samples beyond it, and TailValue is its reading: the tail
	// figure the sample size supports.
	Tail      string  `json:"tail"`
	TailValue float64 `json:"tail_value"`
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as the tail.
const minBeyond = 10

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: quantile(s, 0.50), P90: quantile(s, 0.90), P99: quantile(s, 0.99)}
	out.Tail, out.TailValue = "p50", out.P50
	for _, q := range []float64{0.90, 0.99, 0.999} {
		if beyond(len(s), q) >= minBeyond {
			out.Tail, out.TailValue = fmt.Sprintf("p%g", q*100), quantile(s, q)
		}
	}
	return out
}

// quantile returns the q-quantile of ascending samples by linear
// interpolation between closest ranks (0 for no samples).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples ranked strictly above the q-quantile. The
// epsilon keeps float error in q·n (0.9·100 is not exactly 90) from
// costing a rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)-1e-9))
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
