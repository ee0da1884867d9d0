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
// the winning element, or -1 (and y 0) when no element of the window
// exceeds −Inf, as when it saw only padding. A window is visited in
// row-major order with a strict >, so ties keep the first maximum; an
// average sums its window in row-major order from +0.
//
// Each (sample, channel) plane is walked tap-major on its grid (a copy
// with a −Inf or zero border when some pad is positive): per pass of up
// to walkRuns output-row runs, tap by tap, every run a strided read of
// one plane row into the outputs' running max or sum.
func PoolForward(x *Tensor, spec PoolSpec) (y *Tensor, argmax []int) {
	n, c, inDims := splitActShape(x)
	checkPoolSpec(spec, len(inDims))
	shape := make([]int, 2+len(inDims))
	shape[0], shape[1] = n, c
	for i := range inDims {
		shape[2+i] = PoolOutSize(inDims[i], spec.Window[i], spec.Stride[i], spec.Pad[i])
	}
	y = New(shape...)
	if spec.Kind == MaxPool {
		argmax = make([]int, y.Len())
	}
	PoolForwardInto(y, argmax, x, spec)
	return y, argmax
}

// PoolForwardInto is PoolForward writing every element of the caller's
// y and, for MaxPool, of argmax (one entry per element of y; unused for
// AvgPool), whatever they held; s is an optional Scratch.
func PoolForwardInto(y *Tensor, argmax []int, x *Tensor, spec PoolSpec, s ...*Scratch) {
	n, c, inDims := splitActShape(x)
	checkPoolSpec(spec, len(inDims))
	if y.Rank() != x.Rank() || y.shape[0] != n || y.shape[1] != c {
		panic(fmt.Sprintf("tensor: pool y shape %v inconsistent with x %v", y.Shape(), x.Shape()))
	}
	checkOutDims("pool y", y.shape[2:], inDims, spec.Window, spec.Stride, spec.Pad)
	isMax := spec.Kind == MaxPool
	if isMax && len(argmax) != y.Len() {
		panic(fmt.Sprintf("tensor: pool argmax has %d entries, y %v needs %d", len(argmax), y.Shape(), y.Len()))
	}
	g := newGrid(inDims, y.shape[2:], spec.Window, spec.Stride, spec.Pad)
	inVol, outVol := Volume(inDims), Volume(y.shape[2:])
	var plane []float64
	if g.padded {
		var own Scratch
		plane = grow(&scratchOf(s, &own).floats, g.vol)
		fill := 0.0
		if isMax {
			fill = math.Inf(-1)
		}
		g.border(plane, fill, 0)
	}
	for nc := 0; nc < n*c; nc++ {
		pl := x.data[nc*inVol : (nc+1)*inVol]
		if g.padded {
			g.interior(plane, pl, 0, true)
			pl = plane
		}
		ys := y.data[nc*outVol : (nc+1)*outVol]
		if isMax {
			g.maxPool(ys, argmax[nc*outVol:(nc+1)*outVol], pl)
		} else {
			g.avgPool(ys, pl)
		}
	}
}

// maxPool sets ys to the window maxima of plane pl and as to their
// unpadded offsets. The running best and its offset are updated by a
// select on one compare, not a branch the data would mispredict.
func (g *grid) maxPool(ys []float64, as []int, pl []float64) {
	for i := range ys {
		ys[i], as[i] = math.Inf(-1), -1
	}
	s := g.stride[len(g.stride)-1]
	var buf [walkRuns]run
	for m := 0; m < len(ys); {
		var rs []run
		rs, m = g.runs(buf[:], 0, m, len(ys))
		g.eachTap(false, func(_, off, uoff int) {
			for _, r := range rs {
				best, at := ys[r.at:r.at+r.w], as[r.at:r.at+r.w]
				src := pl[r.base+off : r.base+off+(r.w-1)*s+1]
				u := r.u + uoff
				for i := range best {
					v, b, a := src[i*s], best[i], at[i]
					vb, bb := math.Float64bits(v), math.Float64bits(b)
					if v > b {
						bb, a = vb, u+i*s
					}
					best[i], at[i] = math.Float64frombits(bb), a
				}
			}
		})
	}
	for i, a := range as {
		if a < 0 {
			ys[i] = 0
		}
	}
}

// avgPool sets ys to the window means of plane pl.
func (g *grid) avgPool(ys, pl []float64) {
	clear(ys)
	s := g.stride[len(g.stride)-1]
	var buf [walkRuns]run
	for m := 0; m < len(ys); {
		var rs []run
		rs, m = g.runs(buf[:], 0, m, len(ys))
		g.eachTap(false, func(_, off, _ int) {
			for _, r := range rs {
				sum := ys[r.at : r.at+r.w]
				src := pl[r.base+off : r.base+off+(r.w-1)*s+1]
				for i := range sum {
					sum[i] += src[i*s]
				}
			}
		})
	}
	for i := range ys {
		ys[i] /= float64(Volume(g.win))
	}
}

// PoolBackward propagates dy through the pooling layer. dy's spatial
// dims must be the pooling output of inShape's, and for MaxPool the
// argmax PoolForward returned for it must be supplied. Every input
// gradient sums its contributions from +0 in output-position order, and
// sums densely: a zero dy adds ±0, which leaves such a sum unchanged.
func PoolBackward(dy *Tensor, inShape []int, spec PoolSpec, argmax []int) *Tensor {
	dx := New(inShape...)
	PoolBackwardInto(dx, dy, spec, argmax)
	return dx
}

// PoolBackwardInto is PoolBackward writing every element of the caller's
// dx, whose shape is the forward input's, whatever it held; s is an
// optional Scratch.
func PoolBackwardInto(dx, dy *Tensor, spec PoolSpec, argmax []int, s ...*Scratch) {
	n, c, outDims := splitActShape(dy)
	if dx.Rank() != dy.Rank() || dx.shape[0] != n || dx.shape[1] != c {
		panic(fmt.Sprintf("tensor: pool bwd input shape %v inconsistent with dy %v", dx.Shape(), dy.Shape()))
	}
	inDims := dx.shape[2:]
	checkPoolSpec(spec, len(inDims))
	checkOutDims("pool bwd dy", outDims, inDims, spec.Window, spec.Stride, spec.Pad)
	inVol, outVol := Volume(inDims), Volume(outDims)
	if spec.Kind == MaxPool {
		if len(argmax) != n*c*outVol {
			panic(fmt.Sprintf("tensor: pool bwd argmax has %d entries, dy %v needs %d", len(argmax), dy.Shape(), n*c*outVol))
		}
		for nc := 0; nc < n*c; nc++ {
			xs, as := dx.data[nc*inVol:(nc+1)*inVol], argmax[nc*outVol:(nc+1)*outVol]
			clear(xs)
			for i, g := range dy.data[nc*outVol : (nc+1)*outVol] {
				if o := as[i]; o >= 0 {
					xs[o] += g
				}
			}
		}
		return
	}

	// AvgPool: each output's share goes to every element of its window,
	// scattered tap-major in descending taps into dx itself or a
	// bordered plane whose interior is copied out.
	g := newGrid(inDims, outDims, spec.Window, spec.Stride, spec.Pad)
	stride, winVol := g.stride[len(g.stride)-1], float64(Volume(g.win))
	planeVol := 0
	if g.padded {
		planeVol = g.vol
	}
	var own Scratch
	floats := grow(&scratchOf(s, &own).floats, outVol+planeVol)
	share, plane := floats[:outVol], floats[outVol:]
	var buf [walkRuns]run
	for nc := 0; nc < n*c; nc++ {
		for i, v := range dy.data[nc*outVol : (nc+1)*outVol] {
			share[i] = v / winVol
		}
		xs := dx.data[nc*inVol : (nc+1)*inVol]
		pl := xs
		if g.padded {
			pl = plane
		}
		clear(pl)
		for m := 0; m < outVol; {
			var rs []run
			rs, m = g.runs(buf[:], 0, m, outVol)
			g.eachTap(true, func(_, off, _ int) { scatterRuns(pl[off:], share, rs, stride) })
		}
		if g.padded {
			g.interior(pl, xs, 0, false)
		}
	}
}

// checkPoolSpec panics unless spec is a known kind with one window
// extent, stride and pad per spatial dimension (PoolOutSize rejects the
// strides).
func checkPoolSpec(spec PoolSpec, dims int) {
	if len(spec.Window) != dims || len(spec.Stride) != dims || len(spec.Pad) != dims {
		panic(fmt.Sprintf("tensor: pool spec rank mismatch with spatial rank %d", dims))
	}
	if spec.Kind != MaxPool && spec.Kind != AvgPool {
		panic("tensor: unknown pool kind")
	}
	checkWindow("pool", spec.Window, spec.Pad)
}
