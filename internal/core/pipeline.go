package core

import (
	"paradl/internal/profile"
	"paradl/internal/strategy"
)

// PartitionPipeline splits the model's layers into p contiguous groups
// (composite layers [Start, End), one per pipeline stage)
// minimizing the bottleneck stage's FW+BW time — the workload-balancing
// problem of §5.3.3 ("the training time of a pipeline is limited by the
// slowest stage"). Classic linear-partition via binary search on the
// bottleneck value with a greedy feasibility check.
func PartitionPipeline(times *profile.LayerTimes, p int) []strategy.Range {
	g := len(times.FW)
	if p > g {
		p = g
	}
	if p < 1 {
		p = 1
	}
	w := make([]float64, g)
	total := 0.0
	maxW := 0.0
	for i := range w {
		w[i] = times.FW[i] + times.BW[i]
		total += w[i]
		if w[i] > maxW {
			maxW = w[i]
		}
	}

	fits := func(cap float64) bool {
		groups := 1
		cur := 0.0
		for _, x := range w {
			if cur+x > cap {
				groups++
				cur = 0
			}
			cur += x
		}
		return groups <= p
	}

	lo, hi := maxW, total
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if fits(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}

	// Emit groups greedily at the found bottleneck, then pad with empty
	// trailing splits merged backward so exactly min(p, g) non-empty
	// groups result.
	var groups []strategy.Range
	start := 0
	cur := 0.0
	for i, x := range w {
		if cur+x > hi && i > start {
			groups = append(groups, strategy.Range{Start: start, End: i})
			start = i
			cur = 0
		}
		cur += x
	}
	groups = append(groups, strategy.Range{Start: start, End: g})

	// Greedy can under-produce; split the largest groups until we have
	// exactly p (each group needs ≥1 layer).
	for len(groups) < p {
		// find the group with the most layers that can still split
		best, bestSpan := -1, 1
		for i, gr := range groups {
			if span := gr.End - gr.Start; span > bestSpan {
				best, bestSpan = i, span
			}
		}
		if best < 0 {
			break
		}
		gr := groups[best]
		mid := (gr.Start + gr.End) / 2
		groups = append(groups[:best], append([]strategy.Range{{Start: gr.Start, End: mid}, {Start: mid, End: gr.End}}, groups[best+1:]...)...)
	}
	return groups
}

// BottleneckTime returns the largest per-sample FW+BW time among groups.
func BottleneckTime(times *profile.LayerTimes, groups []strategy.Range) float64 {
	maxT := 0.0
	for _, g := range groups {
		t := 0.0
		for l := g.Start; l < g.End; l++ {
			t += times.FW[l] + times.BW[l]
		}
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}
