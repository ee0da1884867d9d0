package tensor

import (
	"fmt"
	"math"
)

// ConvSpec describes an N-spatial-dimensional convolution. Stride and
// Pad have one entry per spatial dimension.
type ConvSpec struct {
	Stride []int
	Pad    []int
}

// UniformConv returns a ConvSpec with the same stride and pad in every
// one of dims spatial dimensions.
func UniformConv(dims, stride, pad int) ConvSpec {
	s := make([]int, dims)
	p := make([]int, dims)
	for i := range s {
		s[i] = stride
		p[i] = pad
	}
	return ConvSpec{Stride: s, Pad: p}
}

// patchFloats bounds one tile of the lowering ([C·kVol, rows] float64,
// 64 KiB). A tile is as many whole output rows as fit; a row of more
// than patchFloats floats is cut into tiles of a multiple of 8
// positions, the GEMM block width. The sample's bordered planes come on
// top of the budget. Measured on bench-wide2d's three 3x3 layers (all
// three kernels, 2-vCPU Xeon): at 32 KiB their 16- and 32-position rows
// no longer fit, tiles shrink to 8–24 positions and run up to 30 %
// slower; 96 to 192 KiB measured level with 64 KiB end to end.
const patchFloats = 8192

// lowering is the plan the three kernels share for one call. A
// convolution is a GEMM between the weight, already [F, C·kVol]
// row-major, and the matrix of input patches; the patches are
// materialised one tile of output positions at a time, tap-major:
// tile[j*rows+r] is tap j (j = ci·kVol + ki, ki row-major over the
// kernel) of output position m0+r. The taps read a sample's planes (see
// grid): each sample is copied once into zero-bordered planes, so one tap
// over one output row is an unclipped strided run of a plane row, and
// filling the tile (gather) and adding it back (scatter) are row copies.
// The tile, the packed dy, the planes and the step list come from the
// call's Scratch.
type lowering struct {
	grid
	c, inVol, outVol, kVol int
	k                      int       // taps per output position, c*kVol
	rows                   int       // output positions per tile
	tile                   []float64 // [k][rows]
	pack                   []float64 // [rows][4], see gemmCols
	planes                 []float64 // [c][vol] when padded, see Scratch
	steps                  []int     // [rows], see gemmCols
}

// pass names the kernel a lowering serves, which sets the scratch it
// takes.
type pass int

const (
	forward    pass = iota // gathers: tile, planes
	backData               // scatters: tile, planes
	backWeight             // gathers: tile, packed dy, step list, planes
)

// lower plans a call of kernel p, taking its buffers from s. A gather's
// planes get their zero border here, once per call.
func lower(s *Scratch, c int, inDims, outDims, kDims []int, spec ConvSpec, p pass) lowering {
	lw := lowering{grid: newGrid(inDims, outDims, kDims, spec.Stride, spec.Pad), c: c}
	lw.inVol, lw.outVol, lw.kVol = Volume(inDims), Volume(lw.out), Volume(lw.win)
	lw.k = c * lw.kVol
	k, w := max(1, lw.k), lw.out[len(lw.out)-1]
	if w*k <= patchFloats {
		lw.rows = patchFloats / (w * k) * w
	} else {
		lw.rows = max(8, patchFloats/k&^7)
	}
	lw.rows = max(1, min(lw.rows, lw.outVol))
	tile, pack, planes := lw.k*lw.rows, 0, 0
	if p == backWeight {
		pack = 4 * lw.rows
		lw.steps = grow(&s.steps, lw.rows)
	}
	if lw.padded {
		planes = c * lw.vol
	}
	buf := grow(&s.floats, tile+pack+planes)
	lw.tile, lw.pack, lw.planes = buf[:tile], buf[tile:tile+pack], buf[tile+pack:]
	if lw.padded && p != backData {
		for ci := 0; ci < c; ci++ {
			lw.border(lw.planes[ci*lw.vol:(ci+1)*lw.vol], 0, 0)
		}
	}
	return lw
}

// load returns sample xs ([C, inVol]) as the planes the gather reads:
// xs itself when no pad is positive, else its copy into the bordered
// planes, whose border stays zero through the call.
func (lw *lowering) load(xs []float64) []float64 {
	if !lw.padded {
		return xs
	}
	for ci := 0; ci < lw.c; ci++ {
		lw.interior(lw.planes[ci*lw.vol:(ci+1)*lw.vol], xs[ci*lw.inVol:(ci+1)*lw.inVol], 0, true)
	}
	return lw.planes
}

// walk moves the tile's output positions [m0, m1) to or from the planes
// pl of one sample, a pass of row runs at a time, tap-major (see
// grid.eachTap). gather (scatter false) fills the tile, each (tap,
// channel, run) a strided walk of one plane row, a copy when the stride
// is 1; scatter is its transpose (col2im) and adds the tile into pl in
// descending tap order, so every plane element sums its contributions
// in ascending output-position order.
func (lw *lowering) walk(pl []float64, m0, m1 int, scatter bool) {
	s := lw.stride[len(lw.stride)-1]
	var buf [walkRuns]run
	for m := m0; m < m1; {
		var rs []run
		rs, m = lw.runs(buf[:], m0, m, m1)
		lw.eachTap(scatter, func(ki, off, _ int) {
			for ci := 0; ci < lw.c; ci++ {
				xc := pl[ci*lw.vol+off : (ci+1)*lw.vol]
				col := lw.tile[(ci*lw.kVol+ki)*lw.rows:][:m1-m0]
				if scatter {
					scatterRuns(xc, col, rs, s)
				} else {
					gatherRuns(col, xc, rs, s)
				}
			}
		})
	}
}

// gatherRuns copies, for every run r, x's every s-th element from
// r.base into col[r.at : r.at+r.w]. Runs shorter than 16 floats move by
// plain loads and stores, four at a time: there a runtime call costs
// more than the copy.
func gatherRuns(col, x []float64, rs []run, s int) {
	for _, r := range rs {
		d := col[r.at : r.at+r.w]
		switch {
		case s != 1:
			src := x[r.base : r.base+(len(d)-1)*s+1]
			for i := range d {
				d[i] = src[i*s]
			}
		case len(d) >= 16:
			copy(d, x[r.base:])
		default:
			src := x[r.base:][:len(d)]
			i := 0
			for ; i+4 <= len(d); i += 4 {
				d4, s4 := (*[4]float64)(d[i:]), (*[4]float64)(src[i:])
				d4[0], d4[1], d4[2], d4[3] = s4[0], s4[1], s4[2], s4[3]
			}
			for ; i < len(d); i++ {
				d[i] = src[i]
			}
		}
	}
}

// scatterRuns is gatherRuns' transpose: it adds col[r.at : r.at+r.w]
// into x's every s-th element from r.base, one rounded sum each.
func scatterRuns(x, col []float64, rs []run, s int) {
	for _, r := range rs {
		src := col[r.at : r.at+r.w]
		switch {
		case s != 1:
			d := x[r.base : r.base+(len(src)-1)*s+1]
			for i, v := range src {
				d[i*s] += v
			}
		case len(src) >= 16:
			addTo(x[r.base:], src)
		default:
			d := x[r.base:][:len(src)]
			i := 0
			for ; i+4 <= len(src); i += 4 {
				d4, s4 := (*[4]float64)(d[i:]), (*[4]float64)(src[i:])
				d4[0] += s4[0]
				d4[1] += s4[1]
				d4[2] += s4[2]
				d4[3] += s4[3]
			}
			for ; i < len(src); i++ {
				d[i] += src[i]
			}
		}
	}
}

// addTo adds src into dst element by element, four lanes at a time
// where the CPU has AVX2 (one rounded sum each, on either path).
func addTo(dst, src []float64) {
	dst = dst[:len(src)]
	if useAVX2 {
		addAVX2(dst, src)
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// axpy adds s·src[i] into dst[i] for every i < len(src): one rounded
// product, then one rounded sum, never fused. Four lanes at a time where
// the CPU has AVX2; the two paths give the same bits.
func axpy(dst, src []float64, s float64) {
	dst = dst[:len(src)]
	if useAVX2 {
		axpyAVX2(dst, src, s)
		return
	}
	for i, v := range src {
		dst[i] += s * v
	}
}

// gemmRows sets, for lanes l < lanes and columns c < cols,
//
//	y[l*ys+c] = init[l] + Σ_{i<n} a[i*as+c]·b[l*bl+i*bi]
//
// summed in i order, one rounded product and one rounded sum per step; a
// nil init is all +0. Row i of a is one reduction step shared by every
// lane, and b holds one scalar per (lane, step). Blocks of 4 lanes × 8
// columns run gemmRows4x8AVX2 where the CPU has AVX2, the rest the
// scalar loop below, which sums each output in the same order: the two
// paths return the same bits.
func gemmRows(y []float64, ys, lanes, cols int, a []float64, as int, b []float64, bl, bi, n int, init []float64) {
	l := 0
	if useAVX2 && n > 0 && cols >= 8 {
		var blk [4]float64
		for ; l+4 <= lanes; l += 4 {
			if init != nil {
				copy(blk[:], init[l:l+4])
			}
			bs := b[l*bl : (l+3)*bl+(n-1)*bi+1]
			c := 0
			for ; c+8 <= cols; c += 8 {
				gemmRows4x8AVX2(y[l*ys+c:(l+3)*ys+c+8], ys, a[c:(n-1)*as+c+8], as, bs, bl, bi, n, &blk)
			}
			gemmRowsScalar(y, ys, l, l+4, c, cols, a, as, b, bl, bi, n, init)
		}
	}
	gemmRowsScalar(y, ys, l, lanes, 0, cols, a, as, b, bl, bi, n, init)
}

// gemmRowsScalar is gemmRows on lanes [l0, l1) and columns [c0, c1),
// four columns of one lane at a time (see cols4), each block of columns
// taken by every lane before the next, so the block's 32 bytes of every
// row of a stay cache-resident.
func gemmRowsScalar(y []float64, ys, l0, l1, c0, c1 int, a []float64, as int, b []float64, bl, bi, n int, init []float64) {
	for c := c0; c < c1; c += 4 {
		w := min(4, c1-c)
		for l := l0; l < l1; l++ {
			v := 0.0
			if init != nil {
				v = init[l]
			}
			acc := [4]float64{v, v, v, v}
			if n > 0 {
				acc = cols4(a[c:], as, w, b[l*bl:], bi, n, acc)
			}
			copy(y[l*ys+c:l*ys+c+w], acc[:w])
		}
	}
}

// cols4 returns acc[j] + Σ_{i<n} a[i*as+j]·b[i*bi] for the first w ≤ 4
// columns j, each summed in i order in its own accumulator.
func cols4(a []float64, as, w int, b []float64, bi, n int, acc [4]float64) [4]float64 {
	if w < 4 {
		for i := 0; i < n; i++ {
			g := b[i*bi]
			for j, v := range a[i*as : i*as+w] {
				acc[j] += v * g
			}
		}
		return acc
	}
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	for i, ai, bk := 0, 0, 0; i < n; i, ai, bk = i+1, ai+as, bk+bi {
		r, g := a[ai:ai+4], b[bk]
		s0 += r[0] * g
		s1 += r[1] * g
		s2 += r[2] * g
		s3 += r[3] * g
	}
	return [4]float64{s0, s1, s2, s3}
}

// gemmCols adds, for lanes l < lanes and columns c < cols,
//
//	y[l*ys+c] += Σ_{i<n} a[c*as+i]·b[l*bl+i]
//
// summed in i order onto y's own value: each output is the dot product
// of a row of a and a row of b. Lanes go four at a time: the steps at
// which any of the four b rows is nonzero are packed, in order, into
// pack ([n][4]) and their indices into steps, and only those steps are
// summed — blocks of 8 columns in gemmCols4x8AVX2 where the CPU has
// AVX2, the other columns in the loop below on the same packed steps.
// A skipped step would add four ±0 products, which leaves a sum that
// started at +0 unchanged (it is never −0), so for finite a the
// outputs are the dense sums' bits. The lanes past a multiple of 4 take
// dot1, dense.
func gemmCols(y []float64, ys, lanes, cols int, a []float64, as int, b []float64, bl, n int, pack []float64, steps []int) {
	l := 0
	for ; l+4 <= lanes; l += 4 {
		b0, b1, b2, b3 := b[l*bl:l*bl+n], b[(l+1)*bl:(l+1)*bl+n], b[(l+2)*bl:(l+2)*bl+n], b[(l+3)*bl:(l+3)*bl+n]
		m := 0
		for i, v := range b0 {
			// Every step is packed into slot m, and m moves on only when
			// some lane is nonzero: with the sign bit shifted out, the
			// OR of the four is 0 exactly when all four are ±0.
			p := pack[4*m : 4*m+4]
			p[0], p[1], p[2], p[3] = v, b1[i], b2[i], b3[i]
			steps[m] = i
			nz := (math.Float64bits(v) | math.Float64bits(b1[i]) | math.Float64bits(b2[i]) | math.Float64bits(b3[i])) << 1
			m += int((nz | -nz) >> 63)
		}
		bp, at := pack[:4*m], steps[:m]
		c := 0
		if useAVX2 && m > 0 {
			for ; c+8 <= cols; c += 8 {
				gemmCols4x8AVX2(y[l*ys+c:(l+3)*ys+c+8], ys, a[c*as:(c+7)*as+n], as, bp, at)
			}
		}
		for ; c < cols; c++ {
			ac := a[c*as : c*as+n]
			s0, s1, s2, s3 := y[l*ys+c], y[(l+1)*ys+c], y[(l+2)*ys+c], y[(l+3)*ys+c]
			for k, i := range at {
				v, p := ac[i], bp[4*k:4*k+4]
				s0 += v * p[0]
				s1 += v * p[1]
				s2 += v * p[2]
				s3 += v * p[3]
			}
			y[l*ys+c], y[(l+1)*ys+c], y[(l+2)*ys+c], y[(l+3)*ys+c] = s0, s1, s2, s3
		}
	}
	for ; l < lanes; l++ {
		for c := 0; c < cols; c++ {
			y[l*ys+c] = dot1(a[c*as:c*as+n], b[l*bl:l*bl+n], y[l*ys+c])
		}
	}
}

// dot1 returns acc + p·w summed in index order.
func dot1(p, w []float64, acc float64) float64 {
	w = w[:len(p)]
	for i, v := range p {
		acc += v * w[i]
	}
	return acc
}

// ConvForward computes a convolution, lowered to a tap-major patch tile
// and a GEMM (see lowering).
//
//	x: [N, C, in...]   w: [F, C, k...]   b: [F] or nil
//
// and returns y: [N, F, out...] with out[i] = ConvOutSize(in[i], k[i],
// stride[i], pad[i]). The spatial rank is inferred from x. Each output
// is its bias plus the patch·filter products summed in [C, k...]
// row-major order, padding taps contributing an exact zero.
func ConvForward(x, w, b *Tensor, spec ConvSpec) *Tensor {
	n, _, f, inDims, kDims := convOperands(x, w, spec)
	shape := make([]int, 2+len(inDims))
	shape[0], shape[1] = n, f
	for i := range inDims {
		shape[2+i] = ConvOutSize(inDims[i], kDims[i], spec.Stride[i], spec.Pad[i])
	}
	y := New(shape...)
	ConvForwardInto(y, x, w, b, spec)
	return y
}

// ConvForwardInto is ConvForward writing every element of the caller's
// y, whatever it held; s is an optional Scratch.
func ConvForwardInto(y, x, w, b *Tensor, spec ConvSpec, s ...*Scratch) {
	n, c, f, inDims, kDims := convOperands(x, w, spec)
	if b != nil && (b.Rank() != 1 || b.Dim(0) != f) {
		panic(fmt.Sprintf("tensor: conv bias shape %v does not match F=%d", b.Shape(), f))
	}
	if y.Rank() != x.Rank() || y.shape[0] != n || y.shape[1] != f {
		panic(fmt.Sprintf("tensor: conv y shape %v inconsistent with x %v and w %v", y.Shape(), x.Shape(), w.Shape()))
	}
	checkOutDims("conv y", y.shape[2:], inDims, kDims, spec.Stride, spec.Pad)

	var own Scratch
	lw := lower(scratchOf(s, &own), c, inDims, y.shape[2:], kDims, spec, forward)
	var bias []float64
	if b != nil {
		bias = b.data
	}
	for ni := 0; ni < n; ni++ {
		pl := lw.load(x.data[ni*c*lw.inVol : (ni+1)*c*lw.inVol])
		ys := y.data[ni*f*lw.outVol : (ni+1)*f*lw.outVol]
		for m0 := 0; m0 < lw.outVol; m0 += lw.rows {
			m1 := min(m0+lw.rows, lw.outVol)
			lw.walk(pl, m0, m1, false)
			// Lanes are filters, columns positions, steps taps.
			gemmRows(ys[m0:], lw.outVol, f, m1-m0, lw.tile, lw.rows, w.data, lw.k, 1, lw.k, bias)
		}
	}
}

// ConvBackwardData computes the gradient of the loss with respect to the
// convolution input: dx = BW_data(dy, w). dy is [N, F, out...] and the
// result matches the forward input shape inShape ([N, C, in...]). Each
// patch gradient sums its filters' products in filter order from +0,
// and the patches are scattered in output-position order.
//
// The sum is dense: a zero dy entry adds a ±0 product, which leaves a
// sum that starts at +0 unchanged (such a sum is never −0), so finite
// operands give the bits of a loop that skips zero dy. An Inf or NaN
// weight meeting a zero dy yields NaN (0·Inf) where such a loop would
// not.
func ConvBackwardData(dy, w *Tensor, inShape []int, spec ConvSpec) *Tensor {
	dx := New(inShape...)
	ConvBackwardDataInto(dx, dy, w, spec)
	return dx
}

// ConvBackwardDataInto is ConvBackwardData writing every element of the
// caller's dx, whose shape is the forward input's, whatever it held; s
// is an optional Scratch.
func ConvBackwardDataInto(dx, dy, w *Tensor, spec ConvSpec, s ...*Scratch) {
	n, f, outDims := splitActShape(dy)
	wf, c, kDims := splitWeightShape(w)
	if wf != f {
		panic(fmt.Sprintf("tensor: conv bwd filter mismatch dy has F=%d, w has F=%d", f, wf))
	}
	if dx.Rank() != 2+len(kDims) || dx.shape[0] != n || dx.shape[1] != c {
		panic(fmt.Sprintf("tensor: conv bwd input shape %v inconsistent with dy %v and w %v", dx.Shape(), dy.Shape(), w.Shape()))
	}
	checkSpec(spec, kDims)
	inDims := dx.shape[2:]
	checkOutDims("conv bwd dy", outDims, inDims, kDims, spec.Stride, spec.Pad)

	var own Scratch
	lw := lower(scratchOf(s, &own), c, inDims, outDims, kDims, spec, backData)
	outVol := lw.outVol
	for ni := 0; ni < n; ni++ {
		dys := dy.data[ni*f*outVol : (ni+1)*f*outVol]
		dxs := dx.data[ni*c*lw.inVol : (ni+1)*c*lw.inVol]
		// The scatter sums from +0 into dxs itself, or into the bordered
		// planes and then copies their interior out: the same sums.
		pl := dxs
		if lw.padded {
			pl = lw.planes
		}
		clear(pl)
		for m0 := 0; m0 < outVol; m0 += lw.rows {
			m1 := min(m0+lw.rows, outVol)
			// Lanes are taps, columns positions, steps filters.
			gemmRows(lw.tile, lw.rows, lw.k, m1-m0, dys[m0:], outVol, w.data, 1, lw.k, f, nil)
			lw.walk(pl, m0, m1, true)
		}
		if lw.padded {
			for ci := 0; ci < c; ci++ {
				lw.interior(pl[ci*lw.vol:(ci+1)*lw.vol], dxs[ci*lw.inVol:(ci+1)*lw.inVol], 0, false)
			}
		}
	}
}

// ConvBackwardWeight computes the gradients of the loss with respect to
// the weights and bias into fresh tensors: dw = BW_weight(dy, x) shaped
// wShape ([F, C, k...]), db = Σ dy shaped [F].
func ConvBackwardWeight(dy, x *Tensor, wShape []int, spec ConvSpec) (dw, db *Tensor) {
	_, f, _ := splitActShape(dy)
	dw, db = New(wShape...), New(f)
	ConvBackwardWeightInto(dw, db, dy, x, spec)
	return dw, db
}

// ConvBackwardWeightInto is ConvBackwardWeight writing into the caller's
// dw ([F, C, k...], which also names the kernel extent) and db ([F]),
// overwriting whatever they held; s is an optional Scratch. Every dw and
// db element sums its dy contributions from +0 in (sample, output
// position) order. The dw GEMM skips an output position for a block of
// four filters only when all four dy there are zero (see gemmCols) and
// db sums densely; a zero dy adds ±0 to a sum that starts at +0, so
// finite operands give the bits of a loop that skips every zero dy. An
// Inf or NaN input meeting a zero dy yields NaN where a filter of the
// same block has a nonzero dy at that position, or the filter is one of
// the last F mod 4.
func ConvBackwardWeightInto(dw, db, dy, x *Tensor, spec ConvSpec, s ...*Scratch) {
	n, f, outDims := splitActShape(dy)
	xn, c, inDims := splitActShape(x)
	if xn != n {
		panic(fmt.Sprintf("tensor: conv bwd batch mismatch dy N=%d, x N=%d", n, xn))
	}
	wShape := dw.shape
	if len(wShape) != 2+len(inDims) || wShape[0] != f || wShape[1] != c {
		panic(fmt.Sprintf("tensor: conv bwd weight shape %v inconsistent with dy %v and x %v", wShape, dy.Shape(), x.Shape()))
	}
	if db.Rank() != 1 || db.shape[0] != f {
		panic(fmt.Sprintf("tensor: conv bwd bias gradient shape %v does not match F=%d", db.Shape(), f))
	}
	kDims := wShape[2:]
	checkSpec(spec, kDims)
	checkOutDims("conv bwd dy", outDims, inDims, kDims, spec.Stride, spec.Pad)

	clear(dw.data)
	clear(db.data)
	var own Scratch
	lw := lower(scratchOf(s, &own), c, inDims, outDims, kDims, spec, backWeight)
	outVol := lw.outVol
	for ni := 0; ni < n; ni++ {
		pl := lw.load(x.data[ni*c*lw.inVol : (ni+1)*c*lw.inVol])
		dys := dy.data[ni*f*outVol : (ni+1)*f*outVol]
		for fi, acc := range db.data {
			for _, g := range dys[fi*outVol : (fi+1)*outVol] {
				acc += g
			}
			db.data[fi] = acc
		}
		for m0 := 0; m0 < outVol; m0 += lw.rows {
			m1 := min(m0+lw.rows, outVol)
			lw.walk(pl, m0, m1, false)
			// Lanes are filters, columns taps, steps positions.
			gemmCols(dw.data, lw.k, f, lw.k, lw.tile, lw.rows, dys[m0:], outVol, m1-m0, lw.pack, lw.steps)
		}
	}
}

// convOperands panics unless x ([N, C, in...]), w ([F, C, k...]) and
// spec describe one convolution, and returns its sizes.
func convOperands(x, w *Tensor, spec ConvSpec) (n, c, f int, inDims, kDims []int) {
	n, c, inDims = splitActShape(x)
	f, wc, kDims := splitWeightShape(w)
	if wc != c {
		panic(fmt.Sprintf("tensor: conv channel mismatch x has C=%d, w has C=%d", c, wc))
	}
	if len(kDims) != len(inDims) {
		panic(fmt.Sprintf("tensor: conv spatial rank mismatch input %d vs kernel %d", len(inDims), len(kDims)))
	}
	checkSpec(spec, kDims)
	return n, c, f, inDims, kDims
}

// checkOutDims panics unless outDims, the spatial dims of what (a y or a
// dy), are the sliding-window output of inDims under win, stride and pad.
func checkOutDims(what string, outDims, inDims, win, stride, pad []int) {
	ok := len(outDims) == len(inDims)
	for i := 0; ok && i < len(inDims); i++ {
		ok = outDims[i] == ConvOutSize(inDims[i], win[i], stride[i], pad[i])
	}
	if !ok {
		panic(fmt.Sprintf("tensor: %s spatial dims %v are not the output of input dims %v under window %v, stride %v, pad %v", what, outDims, inDims, win, stride, pad))
	}
}

// splitActShape decomposes an activation shape [N, C, spatial...].
func splitActShape(t *Tensor) (n, c int, spatial []int) {
	if t.Rank() < 2 {
		panic(fmt.Sprintf("tensor: activation rank %d < 2", t.Rank()))
	}
	return t.shape[0], t.shape[1], t.shape[2:]
}

// splitWeightShape decomposes a weight shape [F, C, kernel...].
func splitWeightShape(t *Tensor) (f, c int, kernel []int) {
	if t.Rank() < 2 {
		panic(fmt.Sprintf("tensor: weight rank %d < 2", t.Rank()))
	}
	return t.shape[0], t.shape[1], t.shape[2:]
}

// checkSpec panics unless spec fits a kernel of extent kDims: one stride
// and pad per dimension (ConvOutSize rejects the strides).
func checkSpec(spec ConvSpec, kDims []int) {
	if len(spec.Stride) != len(kDims) || len(spec.Pad) != len(kDims) {
		panic(fmt.Sprintf("tensor: conv spec rank (stride %d, pad %d) does not match spatial rank %d", len(spec.Stride), len(spec.Pad), len(kDims)))
	}
	checkWindow("conv", kDims, spec.Pad)
}

// checkWindow panics unless every window extent is positive and no pad
// is negative: a plane has no negative border.
func checkWindow(what string, win, pad []int) {
	for d := range win {
		if win[d] < 1 || pad[d] < 0 {
			panic(fmt.Sprintf("tensor: %s window %v, pad %v: extents must be positive and pads not negative", what, win, pad))
		}
	}
}
