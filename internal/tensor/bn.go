package tensor

import (
	"fmt"
	"math"
)

// BNState carries the intermediates of a batch-normalization forward
// pass needed by the backward pass.
type BNState struct {
	Mean, Var *Tensor // per-channel statistics [C]
	XHat      *Tensor // normalized input, same shape as x
	Eps       float64
	Count     int // number of elements reduced per channel (N × spatial)
}

// BNSync sums batch-norm statistics across the PEs that share a batch:
// synchronized BN (§4.5.2), which normalizes a partitioned batch with
// the statistics of the whole. AllReduceSum takes ownership of its
// argument and returns the sum, in that tensor or in another one.
// *dist.Comm satisfies it.
type BNSync interface {
	AllReduceSum(*Tensor) *Tensor
	AllReduceScalar(float64) float64
}

// BNForward applies channel-wise batch normalization to x [N, C,
// spatial...] with scale gamma [C] and shift beta [C]:
//
//	y = gamma * (x - mean_c) / sqrt(var_c + eps) + beta
//
// Statistics are computed over the batch and spatial dimensions, i.e.
// the unsynchronized local-batch BN of common frameworks (§4.5.2).
func BNForward(x, gamma, beta *Tensor, eps float64) (*Tensor, *BNState) {
	_, c, _ := splitActShape(x)
	y := New(x.shape...)
	st := &BNState{Mean: New(c), Var: New(c), XHat: New(x.shape...)}
	BNForwardInto(y, st, x, gamma, beta, eps, nil)
	return y, st
}

// BNForwardInto is BNForward writing every element of the caller's y
// and st.XHat (both shaped like x) and st.Mean and st.Var ([C]),
// whatever they held, and setting st.Eps and st.Count. With sync set the
// statistics are global: the channel sums Σx, the element count and the
// centered squares Σ(x−mean)², in that order, are summed across sync's
// PEs, and st.Count is the global count.
func BNForwardInto(y *Tensor, st *BNState, x, gamma, beta *Tensor, eps float64, sync BNSync) {
	n, c, spatial := splitActShape(x)
	if gamma.Len() != c || beta.Len() != c {
		panic(fmt.Sprintf("tensor: bn gamma/beta length must be C=%d", c))
	}
	if st.Mean.Len() != c || st.Var.Len() != c {
		panic(fmt.Sprintf("tensor: bn statistics destinations %v, %v must be length C=%d", st.Mean.Shape(), st.Var.Shape(), c))
	}
	y.MustSameShape(x)
	st.XHat.MustSameShape(x)
	vol := Volume(spatial)
	cnt := n * vol
	mean, variance := st.Mean, st.Var
	clear(mean.data)
	clear(variance.data)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * vol
			for i := 0; i < vol; i++ {
				mean.data[ci] += x.data[base+i]
			}
		}
	}
	if sync != nil {
		allReduceInto(sync, mean)
		cnt = int(sync.AllReduceScalar(float64(cnt)))
	}
	bnAverage(mean, cnt, sync != nil)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * vol
			m := mean.data[ci]
			for i := 0; i < vol; i++ {
				d := x.data[base+i] - m
				variance.data[ci] += d * d
			}
		}
	}
	if sync != nil {
		allReduceInto(sync, variance)
	}
	bnAverage(variance, cnt, sync != nil)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * vol
			m := mean.data[ci]
			inv := 1.0 / math.Sqrt(variance.data[ci]+eps)
			g := gamma.data[ci]
			b := beta.data[ci]
			for i := 0; i < vol; i++ {
				xh := (x.data[base+i] - m) * inv
				st.XHat.data[base+i] = xh
				y.data[base+i] = g*xh + b
			}
		}
	}
	st.Eps, st.Count = eps, cnt
}

// bnAverage turns the channel sums in sum into averages over cnt
// elements: local BN divides by cnt, synchronized BN multiplies by its
// reciprocal.
func bnAverage(sum *Tensor, cnt int, synced bool) {
	if synced {
		sum.Scale(1 / float64(cnt))
		return
	}
	for ci := range sum.data {
		sum.data[ci] /= float64(cnt)
	}
}

// allReduceInto sums t across sync's PEs into t itself.
func allReduceInto(sync BNSync, t *Tensor) {
	if r := sync.AllReduceSum(t); r != t {
		copy(t.data, r.data)
	}
}

// BNBackward computes gradients of batch normalization with respect to
// the input, gamma, and beta.
func BNBackward(dy, gamma *Tensor, st *BNState) (dx, dgamma, dbeta *Tensor) {
	_, c, _ := splitActShape(dy)
	dx, dgamma, dbeta = New(dy.shape...), New(c), New(c)
	BNBackwardReduceInto(dgamma, dbeta, dy, st, nil)
	BNBackwardApplyInto(dx, dy, gamma, st, dgamma, dbeta)
	return dx, dgamma, dbeta
}

// BNBackwardReduceInto writes the per-channel reductions Σ dy·x̂ (which
// equals dgamma) and Σ dy (dbeta) into the caller's [C] tensors,
// overwriting whatever they held. With sync set — the sync of the
// forward pass — both are summed across its PEs, in that order, into
// the global gradients.
func BNBackwardReduceInto(sumDyXhat, sumDy, dy *Tensor, st *BNState, sync BNSync) {
	n, c, spatial := splitActShape(dy)
	if sumDyXhat.Len() != c || sumDy.Len() != c {
		panic(fmt.Sprintf("tensor: bn bwd gradient destinations %v, %v must be length C=%d", sumDyXhat.Shape(), sumDy.Shape(), c))
	}
	vol := Volume(spatial)
	clear(sumDyXhat.data)
	clear(sumDy.data)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * vol
			for i := 0; i < vol; i++ {
				sumDyXhat.data[ci] += dy.data[base+i] * st.XHat.data[base+i]
				sumDy.data[ci] += dy.data[base+i]
			}
		}
	}
	if sync != nil {
		allReduceInto(sync, sumDyXhat)
		allReduceInto(sync, sumDy)
	}
}

// BNBackwardApplyInto finishes the input gradient into every element of
// the caller's dx, shaped like dy, whatever it held, given the channel
// sums of BNBackwardReduceInto. st.Count is the element count the
// statistics were computed over — the global one under synchronized BN.
func BNBackwardApplyInto(dx, dy, gamma *Tensor, st *BNState, sumDyXhat, sumDy *Tensor) {
	dx.MustSameShape(dy)
	n, c, spatial := splitActShape(dy)
	vol := Volume(spatial)
	m := float64(st.Count)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * vol
			inv := 1.0 / math.Sqrt(st.Var.data[ci]+st.Eps)
			g := gamma.data[ci]
			sd := sumDy.data[ci]
			sdx := sumDyXhat.data[ci]
			for i := 0; i < vol; i++ {
				xh := st.XHat.data[base+i]
				dx.data[base+i] = g * inv / m * (m*dy.data[base+i] - sd - xh*sdx)
			}
		}
	}
}
