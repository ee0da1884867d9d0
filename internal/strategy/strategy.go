// Package strategy encodes how each parallelization strategy of §3
// arranges PEs and partitions tensors, below the oracle, the simulator
// and the runtime alike.
//
// table3.go is the paper's Table 3, written once: three P1×P2 grid rows
// (Family) of which every strategy is an edge, each yielding its shares,
// its scaling limits and its per-iteration exchanges for a Grid.
// internal/core prices a row in closed form, internal/measure on the
// simulated fabric, so the two cannot drift apart; what the simulator
// alone knows (device pricing, framework overheads) stays there.
//
// This file is the PE arrangement the runtime (internal/dist) shares:
// data-parallel replica groups, filter/channel shards with segmented
// cross-groups, spatial ranges and pipeline stages.
package strategy

import (
	"fmt"

	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// Range is the contiguous slice [Start, End) a PE owns of some
// dimension.
type Range struct {
	Start, End int
}

// Size returns End-Start.
func (r Range) Size() int { return r.End - r.Start }

// PartitionDim splits a dimension of the given extent into p near-equal
// ranges (leading ranges take the remainder), mirroring
// tensor.SplitSizes.
func PartitionDim(extent, p int) []Range {
	sizes := tensor.SplitSizes(extent, p)
	out := make([]Range, p)
	at := 0
	for i, s := range sizes {
		out[i] = Range{Start: at, End: at + s}
		at += s
	}
	return out
}

// AllPEs returns [0, 1, …, p−1].
func AllPEs(p int) []int {
	pes := make([]int, p)
	for i := range pes {
		pes[i] = i
	}
	return pes
}

// HybridGroups arranges p = p1·p2 PEs into p1 contiguous model-parallel
// groups of p2 (the intra-node side of df/ds, §4.5.1: data parallelism
// is mapped inter-node) plus p2 segmented cross-groups — {GPU k of each
// group} — which carry the segmented/hierarchical gradient exchange.
func HybridGroups(p1, p2 int) (groups [][]int, segments [][]int, err error) {
	if p1 <= 0 || p2 <= 0 {
		return nil, nil, fmt.Errorf("strategy: invalid hybrid split %d×%d", p1, p2)
	}
	groups = make([][]int, p1)
	for g := 0; g < p1; g++ {
		grp := make([]int, p2)
		for i := 0; i < p2; i++ {
			grp[i] = g*p2 + i
		}
		groups[g] = grp
	}
	segments = make([][]int, p2)
	for k := 0; k < p2; k++ {
		seg := make([]int, p1)
		for g := 0; g < p1; g++ {
			seg[g] = g*p2 + k
		}
		segments[k] = seg
	}
	return groups, segments, nil
}

// MicroBatches splits a global batch B over p1 data-parallel groups.
// Every group must receive at least one sample.
func MicroBatches(b, p1 int) ([]int, error) {
	if b < p1 {
		return nil, fmt.Errorf("strategy: batch %d smaller than group count %d", b, p1)
	}
	return tensor.SplitSizes(b, p1), nil
}

// FilterShards returns each PE's output-channel range for layer l under
// filter parallelism of width p. An error reports the Table 3 scaling
// violation p > F_l.
func FilterShards(l *nn.Layer, p int) ([]Range, error) {
	if l.F < p {
		return nil, fmt.Errorf("strategy: layer %q has %d filters < p=%d", l.Name, l.F, p)
	}
	return PartitionDim(l.F, p), nil
}

// ChannelShards returns each PE's input-channel range for layer l under
// channel parallelism of width p.
func ChannelShards(l *nn.Layer, p int) ([]Range, error) {
	if l.C < p {
		return nil, fmt.Errorf("strategy: layer %q has %d channels < p=%d", l.Name, l.C, p)
	}
	return PartitionDim(l.C, p), nil
}

// SpatialShards returns each PE's range of the FIRST spatial dimension
// (height) for an input extent h. The paper splits width, height, or
// both; this reproduction decomposes 1-D along the leading spatial
// axis, which preserves the halo-exchange pattern.
func SpatialShards(h, p int) ([]Range, error) {
	if h < p {
		return nil, fmt.Errorf("strategy: spatial extent %d smaller than p=%d", h, p)
	}
	return PartitionDim(h, p), nil
}

// PipelineStages assigns layers to p contiguous stages given per-layer
// weights (FW+BW seconds); it delegates to the balanced linear
// partition used by the oracle so measured and projected stages agree.
type PipelineStage struct {
	Start, End int
	PE         int
}

// ContiguousStages builds stages from group boundaries.
func ContiguousStages(bounds []Range) []PipelineStage {
	out := make([]PipelineStage, len(bounds))
	for i, b := range bounds {
		out[i] = PipelineStage{Start: b.Start, End: b.End, PE: i}
	}
	return out
}
