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

// BNForward applies channel-wise batch normalization to x [N, C,
// spatial...] with scale gamma [C] and shift beta [C]:
//
//	y = gamma * (x - mean_c) / sqrt(var_c + eps) + beta
//
// Statistics are computed over the batch and spatial dimensions, i.e.
// the unsynchronized local-batch BN of common frameworks (§4.5.2). The
// dist runtime layers synchronized variants on top of this kernel.
func BNForward(x, gamma, beta *Tensor, eps float64) (*Tensor, *BNState) {
	_, c, _ := splitActShape(x)
	y := New(x.shape...)
	st := &BNState{Mean: New(c), Var: New(c), XHat: New(x.shape...)}
	BNForwardInto(y, st, x, gamma, beta, eps)
	return y, st
}

// BNForwardInto is BNForward writing every element of the caller's y
// and st.XHat (both shaped like x) and st.Mean and st.Var ([C]),
// whatever they held, and setting st.Eps and st.Count.
func BNForwardInto(y *Tensor, st *BNState, x, gamma, beta *Tensor, eps float64) {
	n, c, spatial := splitActShape(x)
	if gamma.Len() != c || beta.Len() != c {
		panic(fmt.Sprintf("tensor: bn gamma/beta length must be C=%d", c))
	}
	if st.Mean.Len() != c || st.Var.Len() != c {
		panic(fmt.Sprintf("tensor: bn statistics destinations %v, %v must be length C=%d", st.Mean.Shape(), st.Var.Shape(), c))
	}
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
	for ci := 0; ci < c; ci++ {
		mean.data[ci] /= float64(cnt)
	}
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
	for ci := 0; ci < c; ci++ {
		variance.data[ci] /= float64(cnt)
	}
	bnNormalize(y, st.XHat, x, gamma, beta, mean, variance, eps)
	st.Eps, st.Count = eps, cnt
}

// bnNormalize writes xhat = (x − mean_c)/sqrt(var_c + eps) and y =
// gamma·xhat + beta, every element of both, which must be shaped like x.
func bnNormalize(y, xhat, x, gamma, beta, mean, variance *Tensor, eps float64) {
	y.MustSameShape(x)
	xhat.MustSameShape(x)
	n, c, spatial := splitActShape(x)
	vol := Volume(spatial)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * vol
			m := mean.data[ci]
			inv := 1.0 / sqrt(variance.data[ci]+eps)
			g := gamma.data[ci]
			b := beta.data[ci]
			for i := 0; i < vol; i++ {
				xh := (x.data[base+i] - m) * inv
				xhat.data[base+i] = xh
				y.data[base+i] = g*xh + b
			}
		}
	}
}

// BNBackward computes gradients of batch normalization with respect to
// the input, gamma, and beta.
func BNBackward(dy, gamma *Tensor, st *BNState) (dx, dgamma, dbeta *Tensor) {
	dgamma, dbeta = BNBackwardReduce(dy, st)
	dx = BNBackwardApply(dy, gamma, st, dgamma, dbeta)
	return dx, dgamma, dbeta
}

// BNBackwardReduce computes the per-channel reductions Σ dy·x̂ (which
// equals dgamma) and Σ dy (dbeta) into fresh [C] tensors. Under
// synchronized BN these partial sums are Allreduced across PEs before
// BNBackwardApply (§4.5.2).
func BNBackwardReduce(dy *Tensor, st *BNState) (sumDyXhat, sumDy *Tensor) {
	_, c, _ := splitActShape(dy)
	sumDyXhat, sumDy = New(c), New(c)
	BNBackwardReduceInto(sumDyXhat, sumDy, dy, st)
	return sumDyXhat, sumDy
}

// BNBackwardReduceInto is BNBackwardReduce writing into the caller's
// [C] tensors, overwriting whatever they held.
func BNBackwardReduceInto(sumDyXhat, sumDy, dy *Tensor, st *BNState) {
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
}

// BNBackwardApply finishes the input gradient given the (possibly
// globally reduced) channel sums. st.Count must be the GLOBAL element
// count the statistics were computed over.
func BNBackwardApply(dy, gamma *Tensor, st *BNState, sumDyXhat, sumDy *Tensor) *Tensor {
	dx := New(dy.shape...)
	BNBackwardApplyInto(dx, dy, gamma, st, sumDyXhat, sumDy)
	return dx
}

// BNBackwardApplyInto is BNBackwardApply writing every element of the
// caller's dx, shaped like dy, whatever it held.
func BNBackwardApplyInto(dx, dy, gamma *Tensor, st *BNState, sumDyXhat, sumDy *Tensor) {
	dx.MustSameShape(dy)
	n, c, spatial := splitActShape(dy)
	vol := Volume(spatial)
	m := float64(st.Count)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * vol
			inv := 1.0 / sqrt(st.Var.data[ci]+st.Eps)
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

// BNForwardWithStats normalizes x with externally supplied per-channel
// mean/variance (the global statistics of synchronized BN). count is
// the global element count behind the statistics, carried into the
// state for the backward pass.
func BNForwardWithStats(x, gamma, beta, mean, variance *Tensor, eps float64, count int) (*Tensor, *BNState) {
	_, c, _ := splitActShape(x)
	if gamma.Len() != c || beta.Len() != c || mean.Len() != c || variance.Len() != c {
		panic(fmt.Sprintf("tensor: bn stats length must be C=%d", c))
	}
	y, xhat := New(x.shape...), New(x.shape...)
	bnNormalize(y, xhat, x, gamma, beta, mean, variance, eps)
	return y, &BNState{Mean: mean, Var: variance, XHat: xhat, Eps: eps, Count: count}
}

func sqrt(v float64) float64 { return math.Sqrt(v) }
