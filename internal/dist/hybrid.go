package dist

import (
	"paradl/internal/strategy"
	"paradl/internal/tensor"
)

// The §3.6 hybrids arrange p = p1·p2 PEs as a 2-D grid per
// strategy.HybridGroups: p1 model-parallel GROUPS of p2 PEs, each group
// training on its contiguous shard of every batch, plus p2 segmented
// cross-groups — {PE k of every group} — carrying the data-parallel
// gradient exchange between groups (§4.5.1). Every PE therefore holds
// three communicators: the world, its group, and its segment. The pure
// strategies are the degenerate edges of the same grid — data is
// p2 = 1 (groups of one, the segment spans the world), filter and
// spatial are p1 = 1 (one group spanning the world, singleton
// segments) — and share the grid step implementations so the pure and
// hybrid choreographies cannot drift.

// runGrid spawns the p1×p2 grid and hands every PE its world, group,
// and segment communicator. World rank g·p2+k is PE k of group g, so
// group.Rank() = k and seg.Rank() = g. resultRank selects the world
// rank whose per-iteration losses the run reports (0 for the
// filter/spatial grids, group 0's last stage for the pipeline grid).
func runGrid(p1, p2, resultRank int, body func(world, group, seg *Comm) ([]float64, error)) ([]float64, error) {
	groups, segments, err := strategy.HybridGroups(p1, p2)
	if err != nil {
		return nil, err
	}
	return runWorld(p1*p2, resultRank, func(c *Comm) ([]float64, error) {
		g, k := c.Rank()/p2, c.Rank()%p2
		return body(c, c.Sub(groups[g]), c.Sub(segments[k]))
	})
}

// groupShard returns group g's contiguous shard of a batch — a view of
// the batch's own samples, no copy — with its loss weight n_g/B. Shard
// sizes come from strategy.MicroBatches — the same decomposition the Run
// entry points validate against — so slicing and validation cannot
// diverge. Engines only read their input (TestRunLeavesBatchesUntouched
// holds every plan to that), so the view never writes into the caller's
// batch.
func groupShard(b *Batch, g, p1 int) (*tensor.Tensor, []int, float64) {
	total := b.X.Dim(0)
	sizes, err := strategy.MicroBatches(total, p1)
	if err != nil {
		panic(err) // unreachable: checkBatches validated every batch
	}
	off := tensor.SplitOffsets(total, p1)[g]
	n := sizes[g]
	return samples(b.X, off, n), b.Labels[off : off+n], float64(n) / float64(total)
}

// samples returns a view of samples [off, off+n) of the batch tensor x,
// no copy: a group's shard of the batch, or a pipeline's micro-batch.
func samples(x *tensor.Tensor, off, n int) *tensor.Tensor {
	shape := x.Shape()
	shape[0] = n
	vol := x.Len() / x.Dim(0)
	return tensor.FromSlice(x.Data()[off*vol:(off+n)*vol], shape...)
}
