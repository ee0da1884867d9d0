package tensor

import "fmt"

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

// patchFloats bounds one im2row tile ([rows, C·kVol] float64, 16 KiB):
// the patches stay L1-resident while every filter row streams over them.
// Measured flat from 8 to 32 KiB; smaller is less to allocate per call.
const patchFloats = 2048

// lowering is the per-call im2row plan the three kernels share. A
// convolution is a GEMM between the weight, already [F, C·kVol]
// row-major, and the matrix of input patches [outVol, C·kVol]; the
// patches are materialised one tile of output positions at a time
// through the window-offset table, so a call's scratch is the table
// plus one tile whatever the output volume. Nothing here is shared
// between calls: PE goroutines run the kernels concurrently.
type lowering struct {
	off                    []int // windowOffsets of the geometry
	c, inVol, outVol, kVol int
	k                      int       // patch row length, c*kVol
	rows                   int       // output positions per tile
	patch                  []float64 // [rows, k]
	packed                 []float64 // [packF/4][k][4], see interleave4
}

// lower plans a call; packF filters get room for their interleaved
// weights (the forward's SIMD block), 0 for none. A tile holds a
// multiple of the block's 8 positions, at least 8, within patchFloats.
func lower(c int, inDims, outDims, kDims []int, spec ConvSpec, packF int) lowering {
	lw := lowering{
		off: windowOffsets(inDims, outDims, kDims, spec.Stride, spec.Pad),
		c:   c, inVol: Volume(inDims), outVol: Volume(outDims), kVol: Volume(kDims),
	}
	lw.k = c * lw.kVol
	lw.rows = max(1, min(lw.outVol, max(8, patchFloats/max(1, lw.k)&^7)))
	scratch := make([]float64, (lw.rows+packF)*lw.k)
	lw.patch, lw.packed = scratch[:lw.rows*lw.k], scratch[lw.rows*lw.k:]
	return lw
}

// interleave4 copies the weight rows w ([F, k]) of every whole block of
// four filters into lw.packed as [F/4][k][4]: tap i of four filters is
// one 4-lane load for gemm4x8AVX2.
func (lw *lowering) interleave4(w []float64) {
	k := lw.k
	for fi := 0; fi*k < len(lw.packed); fi += 4 {
		blk := lw.packed[fi*k : (fi+4)*k]
		for l := 0; l < 4; l++ {
			for i, v := range w[(fi+l)*k : (fi+l+1)*k] {
				blk[4*i+l] = v
			}
		}
	}
}

// gather fills the tile with the patches of output positions [m0, m1) of
// one sample xs ([C, inVol]); padding taps read as zero.
func (lw *lowering) gather(xs []float64, m0, m1 int) {
	for m := m0; m < m1; m++ {
		offs := lw.off[m*lw.kVol : (m+1)*lw.kVol]
		row := lw.patch[(m-m0)*lw.k : (m-m0+1)*lw.k]
		for ci := 0; ci < lw.c; ci++ {
			xc := xs[ci*lw.inVol : (ci+1)*lw.inVol]
			rc := row[ci*lw.kVol : (ci+1)*lw.kVol]
			for ki, o := range offs {
				if o >= 0 {
					rc[ki] = xc[o]
				} else {
					rc[ki] = 0
				}
			}
		}
	}
}

// scatter is gather's transpose (col2im): it adds the tile's patch
// gradients of output positions [m0, m1) into one sample dxs ([C, inVol]).
func (lw *lowering) scatter(dxs []float64, m0, m1 int) {
	for m := m0; m < m1; m++ {
		offs := lw.off[m*lw.kVol : (m+1)*lw.kVol]
		row := lw.patch[(m-m0)*lw.k : (m-m0+1)*lw.k]
		for ci := 0; ci < lw.c; ci++ {
			xc := dxs[ci*lw.inVol : (ci+1)*lw.inVol]
			rc := row[ci*lw.kVol : (ci+1)*lw.kVol]
			for ki, o := range offs {
				if o >= 0 {
					xc[o] += rc[ki]
				}
			}
		}
	}
}

// dot4 returns acc[j] + p·w[j*len(p):(j+1)*len(p)] for four consecutive
// weight rows. The four sums are independent register accumulators, each
// summed in index order, so one output value depends only on its patch,
// its filter row and its bias — not on the tile or the filter block it
// was computed in.
func dot4(p, w []float64, acc [4]float64) [4]float64 {
	k := len(p)
	w0, w1, w2, w3 := w[:k], w[k:2*k], w[2*k:3*k], w[3*k:4*k]
	w1, w2, w3 = w1[:k], w2[:k], w3[:k] // proves len == len(p): no bounds checks below
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for i, v := range p {
		a0 += v * w0[i]
		a1 += v * w1[i]
		a2 += v * w2[i]
		a3 += v * w3[i]
	}
	return [4]float64{a0, a1, a2, a3}
}

// dot1 returns acc + p·w summed in index order, as one lane of dot4.
func dot1(p, w []float64, acc float64) float64 {
	w = w[:len(p)]
	for i, v := range p {
		acc += v * w[i]
	}
	return acc
}

// axpy computes dst += a*src, each element one rounded product and one
// rounded sum, four lanes at a time where the CPU has AVX2.
func axpy(dst []float64, a float64, src []float64) {
	src = src[:len(dst)]
	if useAVX2 {
		axpyAVX2(dst, a, src)
		return
	}
	for i, v := range src {
		dst[i] += a * v
	}
}

// ConvForward computes a convolution, lowered to im2row + GEMM (see
// lowering).
//
//	x: [N, C, in...]   w: [F, C, k...]   b: [F] or nil
//
// and returns y: [N, F, out...] with out[i] = ConvOutSize(in[i], k[i],
// stride[i], pad[i]). The spatial rank is inferred from x. Each output
// is its bias plus the patch·filter products summed in [C, k...]
// row-major order, padding taps contributing an exact zero.
func ConvForward(x, w, b *Tensor, spec ConvSpec) *Tensor {
	n, c, inDims := splitActShape(x)
	f, wc, kDims := splitWeightShape(w)
	if wc != c {
		panic(fmt.Sprintf("tensor: conv channel mismatch x has C=%d, w has C=%d", c, wc))
	}
	if len(kDims) != len(inDims) {
		panic(fmt.Sprintf("tensor: conv spatial rank mismatch input %d vs kernel %d", len(inDims), len(kDims)))
	}
	checkSpec(spec, len(inDims))
	if b != nil && (b.Rank() != 1 || b.Dim(0) != f) {
		panic(fmt.Sprintf("tensor: conv bias shape %v does not match F=%d", b.Shape(), f))
	}

	shape := make([]int, 2+len(inDims))
	shape[0], shape[1] = n, f
	for i := range inDims {
		shape[2+i] = ConvOutSize(inDims[i], kDims[i], spec.Stride[i], spec.Pad[i])
	}
	y := New(shape...)
	packF := 0
	if useAVX2 {
		packF = f &^ 3
	}
	lw := lower(c, inDims, shape[2:], kDims, spec, packF)
	lw.interleave4(w.data)
	k, outVol := lw.k, lw.outVol

	var bias [4]float64
	for ni := 0; ni < n; ni++ {
		xs := x.data[ni*c*lw.inVol : (ni+1)*c*lw.inVol]
		ys := y.data[ni*f*outVol : (ni+1)*f*outVol]
		for m0 := 0; m0 < outVol; m0 += lw.rows {
			m1 := min(m0+lw.rows, outVol)
			lw.gather(xs, m0, m1)
			fi := 0
			for ; fi+4 <= f; fi += 4 {
				if b != nil {
					copy(bias[:], b.data[fi:fi+4])
				}
				m := m0
				if len(lw.packed) > 0 { // AVX2: blocks of 8 positions; the rest take dot4 below
					wp := lw.packed[fi*k : (fi+4)*k]
					for ; m+8 <= m1; m += 8 {
						gemm4x8AVX2(ys[fi*outVol+m:(fi+3)*outVol+m+8], outVol, lw.patch[(m-m0)*k:(m-m0+8)*k], wp, &bias)
					}
				}
				wf := w.data[fi*k : (fi+4)*k]
				y0, y1, y2, y3 := ys[fi*outVol:], ys[(fi+1)*outVol:], ys[(fi+2)*outVol:], ys[(fi+3)*outVol:]
				for ; m < m1; m++ {
					a := dot4(lw.patch[(m-m0)*k:(m-m0+1)*k], wf, bias)
					y0[m], y1[m], y2[m], y3[m] = a[0], a[1], a[2], a[3]
				}
			}
			for ; fi < f; fi++ { // filter-block tail
				bf := 0.0
				if b != nil {
					bf = b.data[fi]
				}
				wf := w.data[fi*k : (fi+1)*k]
				for m := m0; m < m1; m++ {
					ys[fi*outVol+m] = dot1(lw.patch[(m-m0)*k:(m-m0+1)*k], wf, bf)
				}
			}
		}
	}
	return y
}

// ConvBackwardData computes the gradient of the loss with respect to the
// convolution input: dx = BW_data(dy, w). dy is [N, F, out...] and the
// result matches the forward input shape inShape ([N, C, in...]). Patch
// gradients are accumulated filter by filter (zero dy entries, the bulk
// of a post-ReLU/pool gradient, are skipped) and then scattered in
// output-position order.
func ConvBackwardData(dy, w *Tensor, inShape []int, spec ConvSpec) *Tensor {
	n, f, outDims := splitActShape(dy)
	wf, c, kDims := splitWeightShape(w)
	if wf != f {
		panic(fmt.Sprintf("tensor: conv bwd filter mismatch dy has F=%d, w has F=%d", f, wf))
	}
	if len(inShape) != 2+len(kDims) || inShape[0] != n || inShape[1] != c {
		panic(fmt.Sprintf("tensor: conv bwd input shape %v inconsistent with dy %v and w %v", inShape, dy.Shape(), w.Shape()))
	}
	checkSpec(spec, len(kDims))
	inDims := inShape[2:]
	checkOutDims(outDims, inDims, kDims, spec)

	dx := New(inShape...)
	lw := lower(c, inDims, outDims, kDims, spec, 0)
	k, outVol := lw.k, lw.outVol

	for ni := 0; ni < n; ni++ {
		dys := dy.data[ni*f*outVol : (ni+1)*f*outVol]
		dxs := dx.data[ni*c*lw.inVol : (ni+1)*c*lw.inVol]
		for m0 := 0; m0 < outVol; m0 += lw.rows {
			m1 := min(m0+lw.rows, outVol)
			clear(lw.patch[:(m1-m0)*k])
			for fi := 0; fi < f; fi++ {
				wrow := w.data[fi*k : (fi+1)*k]
				for r, g := range dys[fi*outVol+m0 : fi*outVol+m1] {
					if g != 0 {
						axpy(lw.patch[r*k:(r+1)*k], g, wrow)
					}
				}
			}
			lw.scatter(dxs, m0, m1)
		}
	}
	return dx
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
// overwriting whatever they held. Every dw and db element accumulates
// its nonzero dy contributions in (sample, output position) order.
func ConvBackwardWeightInto(dw, db, dy, x *Tensor, spec ConvSpec) {
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
	checkSpec(spec, len(inDims))
	kDims := wShape[2:]
	checkOutDims(outDims, inDims, kDims, spec)

	clear(dw.data)
	clear(db.data)
	lw := lower(c, inDims, outDims, kDims, spec, 0)
	k, outVol := lw.k, lw.outVol

	for ni := 0; ni < n; ni++ {
		xs := x.data[ni*c*lw.inVol : (ni+1)*c*lw.inVol]
		dys := dy.data[ni*f*outVol : (ni+1)*f*outVol]
		for m0 := 0; m0 < outVol; m0 += lw.rows {
			m1 := min(m0+lw.rows, outVol)
			lw.gather(xs, m0, m1)
			for fi := 0; fi < f; fi++ {
				dwrow := dw.data[fi*k : (fi+1)*k]
				for r, g := range dys[fi*outVol+m0 : fi*outVol+m1] {
					if g != 0 {
						db.data[fi] += g
						axpy(dwrow, g, lw.patch[r*k:(r+1)*k])
					}
				}
			}
		}
	}
}

// checkOutDims panics unless outDims, the spatial dims of a dy, are the
// convolution output of inDims under kDims and spec.
func checkOutDims(outDims, inDims, kDims []int, spec ConvSpec) {
	ok := len(outDims) == len(inDims)
	for i := 0; ok && i < len(inDims); i++ {
		ok = outDims[i] == ConvOutSize(inDims[i], kDims[i], spec.Stride[i], spec.Pad[i])
	}
	if !ok {
		panic(fmt.Sprintf("tensor: conv bwd dy spatial dims %v are not the output of input dims %v under kernel %v, stride %v, pad %v", outDims, inDims, kDims, spec.Stride, spec.Pad))
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

func checkSpec(spec ConvSpec, dims int) {
	if len(spec.Stride) != dims || len(spec.Pad) != dims {
		panic(fmt.Sprintf("tensor: conv spec rank (stride %d, pad %d) does not match spatial rank %d", len(spec.Stride), len(spec.Pad), dims))
	}
}
