package dist

import (
	"paradl/internal/tensor"
)

// bnEps matches the epsilon hard-wired into the batch normalization of
// nn's layer op (Network.ForwardInto), so synchronized and sequential BN
// normalize alike.
const bnEps = 1e-5

// syncBNForward is synchronized batch normalization (§4.5.2): the
// per-channel statistics are computed over the GLOBAL mini-batch by
// Allreducing the local sums, so a partitioned run normalizes with
// exactly the statistics the sequential baseline sees. Two passes —
// mean first, then centered squares — mirror the sequential kernel's
// arithmetic so the only divergence is summation reassociation.
func syncBNForward(c *Comm, x, gamma, beta *tensor.Tensor) (*tensor.Tensor, *tensor.BNState) {
	sum, localCnt := channelSums(x)
	sum = c.AllReduceSum(sum)
	cnt := int(c.AllReduceScalar(float64(localCnt)))
	mean := sum
	mean.Scale(1 / float64(cnt))
	variance := c.AllReduceSum(centeredSquares(x, mean))
	variance.Scale(1 / float64(cnt))
	return tensor.BNForwardWithStats(x, gamma, beta, mean, variance, bnEps, cnt)
}

// syncBNBackward finishes the BN backward pass with globally reduced
// channel sums. The returned dgamma/dbeta are already global gradients
// (identical on every PE) and must NOT enter a later gradient
// Allreduce.
func syncBNBackward(c *Comm, dy, gamma *tensor.Tensor, st *tensor.BNState) (dx, dgamma, dbeta *tensor.Tensor) {
	sumDyXhat, sumDy := tensor.BNBackwardReduce(dy, st)
	sumDyXhat = c.AllReduceSum(sumDyXhat)
	sumDy = c.AllReduceSum(sumDy)
	dx = tensor.BNBackwardApply(dy, gamma, st, sumDyXhat, sumDy)
	return dx, sumDyXhat, sumDy
}

// channelSums returns the per-channel sum of x [N, C, spatial...] over
// the batch and spatial dimensions plus the local element count per
// channel — the first-pass reduction of synchronized BN. There is no Σx²:
// the two-pass variance below never uses it.
func channelSums(x *tensor.Tensor) (*tensor.Tensor, int) {
	shape := x.Shape()
	n, ch := shape[0], shape[1]
	vol := 1
	for _, d := range shape[2:] {
		vol *= d
	}
	out := tensor.New(ch)
	xd, od := x.Data(), out.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < ch; ci++ {
			base := (ni*ch + ci) * vol
			for i := 0; i < vol; i++ {
				od[ci] += xd[base+i]
			}
		}
	}
	return out, n * vol
}

// centeredSquares returns the per-channel sum of (x - mean_c)² over the
// batch and spatial dimensions of x [N, C, spatial...].
func centeredSquares(x, mean *tensor.Tensor) *tensor.Tensor {
	shape := x.Shape()
	n, ch := shape[0], shape[1]
	vol := 1
	for _, d := range shape[2:] {
		vol *= d
	}
	out := tensor.New(ch)
	xd, od, md := x.Data(), out.Data(), mean.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < ch; ci++ {
			base := (ni*ch + ci) * vol
			m := md[ci]
			for i := 0; i < vol; i++ {
				d := xd[base+i] - m
				od[ci] += d * d
			}
		}
	}
	return out
}
