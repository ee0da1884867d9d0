package tensor

import (
	"fmt"
	"math"
	"math/bits"
)

// ReLUForward returns max(0, x) element-wise: x where x > 0, else +0
// (NaN and −0 included).
func ReLUForward(x *Tensor) *Tensor {
	y := New(x.shape...)
	ReLUForwardInto(y, x)
	return y
}

// ReLUForwardInto is ReLUForward writing every element of the caller's
// y, shaped like x, whatever it held.
func ReLUForwardInto(y, x *Tensor) {
	y.MustSameShape(x)
	ys := y.data[:len(x.data)]
	for i, v := range x.data {
		ys[i] = math.Float64frombits(math.Float64bits(v) & positive(v))
	}
}

// ReLUBackward returns dy where the forward input x > 0, else +0.
func ReLUBackward(dy, x *Tensor) *Tensor {
	dx := New(x.shape...)
	ReLUBackwardInto(dx, dy, x)
	return dx
}

// ReLUBackwardInto is ReLUBackward writing every element of the caller's
// dx, shaped like x, whatever it held.
func ReLUBackwardInto(dx, dy, x *Tensor) {
	dy.MustSameShape(x)
	dx.MustSameShape(x)
	ds, dys := dx.data[:len(x.data)], dy.data[:len(x.data)]
	for i, v := range x.data {
		ds[i] = math.Float64frombits(math.Float64bits(dys[i]) & positive(v))
	}
}

// positive returns all ones where v > 0 and zero elsewhere, without a
// branch a random sign would mispredict: v > 0 exactly when 0 < bits(v)
// ≤ bits(+Inf), that is when bits(v)−1 < bits(+Inf) unsigned, which the
// subtraction's borrow reports.
func positive(v float64) uint64 {
	const inf = 0x7FF0000000000000
	_, borrow := bits.Sub64(math.Float64bits(v)-1, inf, 0)
	return -borrow
}

// FCForward computes a fully-connected layer y = x·Wᵀ + b where x is
// [N, In] (or any shape flattened to it), w is [Out, In] and b is [Out]
// or nil. The result is [N, Out].
//
// A fully-connected layer is the degenerate convolution of the paper's
// notation (filter size equal to the input size), and it runs the
// convolution's backward-weight GEMM block (gemmCols).
func FCForward(x, w, b *Tensor) *Tensor {
	y := New(x.shape[0], w.shape[0])
	FCForwardInto(y, x, w, b)
	return y
}

// FCForwardInto is FCForward writing every element of the caller's y
// ([N, Out]), whatever it held. It takes an optional Scratch, as the
// window kernels do, for the GEMM's packed steps and padded lanes.
func FCForwardInto(y, x, w, b *Tensor, s ...*Scratch) {
	n := x.shape[0]
	in := x.Len() / n
	out, win := w.shape[0], w.Len()/w.shape[0]
	if win != in {
		panic(fmt.Sprintf("tensor: fc input %d does not match weight inner %d", in, win))
	}
	if b != nil && b.Len() != out {
		panic(fmt.Sprintf("tensor: fc bias length %d does not match out %d", b.Len(), out))
	}
	if y.Rank() != 2 || y.shape[0] != n || y.shape[1] != out {
		panic(fmt.Sprintf("tensor: fc y shape %v does not match N=%d Out=%d", y.Shape(), n, out))
	}
	// gemmCols with the samples as its lanes and the weight rows as its
	// columns: every output is its zero-initialised k-ordered dot, then
	// the bias. The samples past a multiple of 4 run the same 4-lane
	// block, padded with zero lanes, never the dense one-lane tail.
	var own Scratch
	sc := scratchOf(s, &own)
	full, rest := n&^3, n&3
	floats := 4 * in // pack
	if rest > 0 {
		floats += 4*in + 4*out // padded lanes of x and y
	}
	buf := grow(&sc.floats, floats)
	pack, steps := buf[:4*in], grow(&sc.steps, in)
	clear(y.data)
	gemmCols(y.data, out, full, out, w.data, in, x.data, in, in, pack, steps)
	if rest > 0 {
		xp, yp := buf[4*in:8*in], buf[8*in:]
		clear(xp[copy(xp, x.data[full*in:n*in]):])
		clear(yp)
		gemmCols(yp, out, 4, out, w.data, in, xp, in, in, pack, steps)
		copy(y.data[full*out:], yp[:rest*out])
	}
	if b != nil {
		for ni := 0; ni < n; ni++ {
			for oi, bv := range b.data {
				y.data[ni*out+oi] += bv
			}
		}
	}
}

// FCBackward computes the input, weight and bias gradients of FCForward
// into fresh tensors. dy is [N, Out]; xShape restores the original input
// shape.
func FCBackward(dy, x, w *Tensor, xShape []int) (dx, dw, db *Tensor) {
	dw, db = New(w.shape...), New(w.shape[0])
	return FCBackwardInto(dw, db, dy, x, w, xShape), dw, db
}

// FCBackwardInto is FCBackward writing the weight and bias gradients into
// the caller's dw (shaped like w) and db ([Out]), overwriting whatever
// they held; only dx is allocated.
func FCBackwardInto(dw, db, dy, x, w *Tensor, xShape []int) (dx *Tensor) {
	dx = New(xShape...)
	FCBackwardGradsInto(dx, dw, db, dy, x, w)
	return dx
}

// FCBackwardGradsInto is FCBackwardInto writing the input gradient into
// the caller's dx as well (N·In elements, any shape with N rows), or
// skipping it when dx is nil, as when no layer consumes it. It walks
// output rows outer, samples inner, clearing each dw row right before
// accumulating into it — cache-hot, no full-size zeroing pass. Every
// element sums its nonzero-dy contributions in order: dx over output
// rows, dw and db over samples, the dx and dw rows through axpy.
func FCBackwardGradsInto(dx, dw, db, dy, x, w *Tensor) {
	n := x.shape[0]
	in := x.Len() / n
	out := w.shape[0]
	if win := w.Len() / out; win != in {
		panic(fmt.Sprintf("tensor: fc bwd input %d does not match weight inner %d", in, win))
	}
	if dy.shape[0] != n || dy.Len()/n != out {
		panic(fmt.Sprintf("tensor: fc bwd dy shape %v inconsistent with N=%d Out=%d", dy.Shape(), n, out))
	}
	if !EqualShapes(dw.shape, w.shape) || db.Rank() != 1 || db.shape[0] != out {
		panic(fmt.Sprintf("tensor: fc bwd gradient destinations %v, %v do not match weight %v and Out=%d", dw.Shape(), db.Shape(), w.Shape(), out))
	}
	if dx != nil {
		if dx.Rank() == 0 || dx.shape[0] != n || dx.Len() != n*in {
			panic(fmt.Sprintf("tensor: fc bwd dx shape %v does not match N=%d In=%d", dx.Shape(), n, in))
		}
		clear(dx.data)
	}
	for oi := 0; oi < out; oi++ {
		wRow := w.data[oi*in : (oi+1)*in]
		dwRow := dw.data[oi*in : (oi+1)*in]
		clear(dwRow)
		bias := 0.0
		for ni := 0; ni < n; ni++ {
			g := dy.data[ni*out+oi]
			if g == 0 {
				continue
			}
			bias += g
			if dx != nil {
				axpy(dx.data[ni*in:(ni+1)*in], wRow, g)
			}
			axpy(dwRow, x.data[ni*in:(ni+1)*in], g)
		}
		db.data[oi] = bias
	}
}

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss of
// logits [N, K] against integer labels, plus the gradient with respect
// to the logits (already divided by N, as in the paper's SGD update).
func SoftmaxCrossEntropy(logits *Tensor, labels []int) (loss float64, dlogits *Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("tensor: softmax expects rank-2 logits, got %v", logits.Shape()))
	}
	n, k := logits.shape[0], logits.shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("tensor: %d labels for batch of %d", len(labels), n))
	}
	dlogits = New(n, k)
	for ni := 0; ni < n; ni++ {
		row := logits.data[ni*k : (ni+1)*k]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		logSum := math.Log(sum) + maxv
		lbl := labels[ni]
		if lbl < 0 || lbl >= k {
			panic(fmt.Sprintf("tensor: label %d out of range [0,%d)", lbl, k))
		}
		loss += logSum - row[lbl]
		for ki := 0; ki < k; ki++ {
			p := math.Exp(row[ki] - logSum)
			g := p
			if ki == lbl {
				g -= 1
			}
			dlogits.data[ni*k+ki] = g / float64(n)
		}
	}
	return loss / float64(n), dlogits
}

// AddBias adds a per-channel bias b[C] to an activation [N, C,
// spatial...] in place. Channel parallelism applies the bias AFTER the
// cross-PE Allreduce of partial sums so it is added exactly once.
func AddBias(y, b *Tensor) {
	n, c, spatial := splitActShape(y)
	if b.Len() != c {
		panic(fmt.Sprintf("tensor: bias length %d does not match C=%d", b.Len(), c))
	}
	vol := Volume(spatial)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * vol
			bv := b.data[ci]
			for i := 0; i < vol; i++ {
				y.data[base+i] += bv
			}
		}
	}
}

// SGDStep applies w -= lr*dw in place, as w + (−lr)·dw through axpy:
// negating a rounded product is exact, and w + (−p) is w − p, so every
// element is w − lr·dw's bits, signed zeros included.
func SGDStep(w, dw *Tensor, lr float64) {
	w.MustSameShape(dw)
	axpy(w.data, dw.data, -lr)
}
