package tensor

import (
	"fmt"
	"math"
)

// PoolKind selects the pooling reduction.
type PoolKind int

const (
	// MaxPool keeps the maximum of each window.
	MaxPool PoolKind = iota
	// AvgPool averages each window (zero padding contributes to the
	// divisor, matching the layer-size accounting of the cost model).
	AvgPool
)

// PoolSpec describes an N-spatial-dimensional pooling layer.
type PoolSpec struct {
	Kind   PoolKind
	Window []int
	Stride []int
	Pad    []int
}

// UniformPool returns a PoolSpec with identical window/stride/pad in
// every one of dims spatial dimensions.
func UniformPool(kind PoolKind, dims, window, stride, pad int) PoolSpec {
	w := make([]int, dims)
	s := make([]int, dims)
	p := make([]int, dims)
	for i := range w {
		w[i] = window
		s[i] = stride
		p[i] = pad
	}
	return PoolSpec{Kind: kind, Window: w, Stride: s, Pad: p}
}

// PoolForward applies pooling to x: [N, C, in...] and returns
// y: [N, C, out...] plus an argmax index tensor (for MaxPool backward;
// nil for AvgPool). The argmax stores the flat input-spatial offset of
// the winning element, or -1 when the window saw only padding. A window
// is visited in row-major order, so ties keep the first maximum.
func PoolForward(x *Tensor, spec PoolSpec) (y *Tensor, argmax []int) {
	n, c, inDims := splitActShape(x)
	dims := len(inDims)
	if len(spec.Window) != dims || len(spec.Stride) != dims || len(spec.Pad) != dims {
		panic(fmt.Sprintf("tensor: pool spec rank mismatch with spatial rank %d", dims))
	}
	if spec.Kind != MaxPool && spec.Kind != AvgPool {
		panic("tensor: unknown pool kind")
	}
	shape := make([]int, 2+dims)
	shape[0], shape[1] = n, c
	for i := range inDims {
		shape[2+i] = PoolOutSize(inDims[i], spec.Window[i], spec.Stride[i], spec.Pad[i])
	}
	y = New(shape...)

	off := windowOffsets(inDims, shape[2:], spec.Window, spec.Stride, spec.Pad)
	inVol, outVol, winVol := Volume(inDims), Volume(shape[2:]), Volume(spec.Window)
	if spec.Kind == MaxPool {
		argmax = make([]int, n*c*outVol)
	}

	for nc := 0; nc < n*c; nc++ {
		xs := x.data[nc*inVol : (nc+1)*inVol]
		ys := y.data[nc*outVol : (nc+1)*outVol]
		for oi := range ys {
			win := off[oi*winVol : (oi+1)*winVol]
			if spec.Kind == MaxPool {
				best := math.Inf(-1)
				bestOff := -1
				for _, o := range win {
					if o >= 0 && xs[o] > best {
						best = xs[o]
						bestOff = o
					}
				}
				if bestOff < 0 {
					best = 0 // window entirely in padding
				}
				ys[oi] = best
				argmax[nc*outVol+oi] = bestOff
			} else {
				sum := 0.0
				for _, o := range win {
					if o >= 0 {
						sum += xs[o]
					}
				}
				ys[oi] = sum / float64(winVol)
			}
		}
	}
	return y, argmax
}

// PoolBackward propagates dy through the pooling layer. dy's spatial
// dims must be the pooling output of inShape's, and for MaxPool the
// argmax PoolForward returned for it must be supplied.
func PoolBackward(dy *Tensor, inShape []int, spec PoolSpec, argmax []int) *Tensor {
	n, c, outDims := splitActShape(dy)
	if len(inShape) != 2+len(outDims) || inShape[0] != n || inShape[1] != c {
		panic(fmt.Sprintf("tensor: pool bwd input shape %v inconsistent with dy %v", inShape, dy.Shape()))
	}
	inDims := inShape[2:]
	dims := len(inDims)
	if len(spec.Window) != dims || len(spec.Stride) != dims || len(spec.Pad) != dims {
		panic(fmt.Sprintf("tensor: pool spec rank mismatch with spatial rank %d", dims))
	}
	for i := range inDims {
		if outDims[i] != PoolOutSize(inDims[i], spec.Window[i], spec.Stride[i], spec.Pad[i]) {
			panic(fmt.Sprintf("tensor: pool bwd dy spatial dims %v are not the output of input dims %v under window %v, stride %v, pad %v", outDims, inDims, spec.Window, spec.Stride, spec.Pad))
		}
	}
	dx := New(inShape...)
	inVol, outVol, winVol := Volume(inDims), Volume(outDims), Volume(spec.Window)

	var off []int
	switch spec.Kind {
	case MaxPool:
		if len(argmax) != n*c*outVol {
			panic(fmt.Sprintf("tensor: pool bwd argmax has %d entries, dy %v needs %d", len(argmax), dy.Shape(), n*c*outVol))
		}
	case AvgPool:
		off = windowOffsets(inDims, outDims, spec.Window, spec.Stride, spec.Pad)
	default:
		panic("tensor: unknown pool kind")
	}

	for nc := 0; nc < n*c; nc++ {
		xs := dx.data[nc*inVol : (nc+1)*inVol]
		for oi, g := range dy.data[nc*outVol : (nc+1)*outVol] {
			if g == 0 {
				continue
			}
			if spec.Kind == MaxPool {
				if o := argmax[nc*outVol+oi]; o >= 0 {
					xs[o] += g
				}
				continue
			}
			share := g / float64(winVol)
			for _, o := range off[oi*winVol : (oi+1)*winVol] {
				if o >= 0 {
					xs[o] += share
				}
			}
		}
	}
	return dx
}
