package tensor

import "fmt"

// The direct N-d convolution loops that ConvForward, ConvBackwardData and
// ConvBackwardWeight were before the im2row + GEMM lowering, moved here
// verbatim: they re-derive and bounds-check every (output, kernel)
// coordinate pair, which makes them slow and obviously right. The
// differential tests in conv_test.go hold the lowering to them.

func refConvForward(x, w, b *Tensor, spec ConvSpec) *Tensor {
	n, c, inDims := splitActShape(x)
	f, wc, kDims := splitWeightShape(w)
	if wc != c {
		panic(fmt.Sprintf("tensor: conv channel mismatch x has C=%d, w has C=%d", c, wc))
	}
	if len(kDims) != len(inDims) {
		panic(fmt.Sprintf("tensor: conv spatial rank mismatch input %d vs kernel %d", len(inDims), len(kDims)))
	}
	checkSpec(spec, kDims)
	if b != nil && (b.Rank() != 1 || b.Dim(0) != f) {
		panic(fmt.Sprintf("tensor: conv bias shape %v does not match F=%d", b.Shape(), f))
	}

	outDims := make([]int, len(inDims))
	for i := range inDims {
		outDims[i] = ConvOutSize(inDims[i], kDims[i], spec.Stride[i], spec.Pad[i])
	}
	y := New(append([]int{n, f}, outDims...)...)

	inVol := Volume(inDims)
	outVol := Volume(outDims)
	kVol := Volume(kDims)
	inStr := computeStrides(inDims)
	kCoords := enumerate(kDims)
	outCoords := enumerate(outDims)

	xd, wd, yd := x.data, w.data, y.data
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			bias := 0.0
			if b != nil {
				bias = b.data[fi]
			}
			yBase := (ni*f + fi) * outVol
			for oi, oc := range outCoords {
				acc := bias
				for ki := 0; ki < kVol; ki++ {
					kc := kCoords[ki]
					// input spatial offset for this (output, kernel) pair
					inOff := 0
					ok := true
					for d := range oc {
						pos := oc[d]*spec.Stride[d] - spec.Pad[d] + kc[d]
						if pos < 0 || pos >= inDims[d] {
							ok = false
							break
						}
						inOff += pos * inStr[d]
					}
					if !ok {
						continue
					}
					for ci := 0; ci < c; ci++ {
						acc += xd[(ni*c+ci)*inVol+inOff] * wd[((fi*c+ci)*kVol)+ki]
					}
				}
				yd[yBase+oi] = acc
			}
		}
	}
	return y
}

func refConvBackwardData(dy, w *Tensor, inShape []int, spec ConvSpec) *Tensor {
	n, f, outDims := splitActShape(dy)
	wf, c, kDims := splitWeightShape(w)
	if wf != f {
		panic(fmt.Sprintf("tensor: conv bwd filter mismatch dy has F=%d, w has F=%d", f, wf))
	}
	if len(inShape) != 2+len(kDims) || inShape[0] != n || inShape[1] != c {
		panic(fmt.Sprintf("tensor: conv bwd input shape %v inconsistent with dy %v and w %v", inShape, dy.Shape(), w.Shape()))
	}
	checkSpec(spec, kDims)
	inDims := inShape[2:]

	dx := New(inShape...)
	inVol := Volume(inDims)
	outVol := Volume(outDims)
	kVol := Volume(kDims)
	inStr := computeStrides(inDims)
	kCoords := enumerate(kDims)
	outCoords := enumerate(outDims)

	dyd, wd, dxd := dy.data, w.data, dx.data
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			dyBase := (ni*f + fi) * outVol
			for oi, oc := range outCoords {
				g := dyd[dyBase+oi]
				if g == 0 {
					continue
				}
				for ki := 0; ki < kVol; ki++ {
					kc := kCoords[ki]
					inOff := 0
					ok := true
					for d := range oc {
						pos := oc[d]*spec.Stride[d] - spec.Pad[d] + kc[d]
						if pos < 0 || pos >= inDims[d] {
							ok = false
							break
						}
						inOff += pos * inStr[d]
					}
					if !ok {
						continue
					}
					for ci := 0; ci < c; ci++ {
						dxd[(ni*c+ci)*inVol+inOff] += g * wd[(fi*c+ci)*kVol+ki]
					}
				}
			}
		}
	}
	return dx
}

func refConvBackwardWeight(dy, x *Tensor, wShape []int, spec ConvSpec) (dw, db *Tensor) {
	n, f, outDims := splitActShape(dy)
	xn, c, inDims := splitActShape(x)
	if xn != n {
		panic(fmt.Sprintf("tensor: conv bwd batch mismatch dy N=%d, x N=%d", n, xn))
	}
	if len(wShape) != 2+len(inDims) || wShape[0] != f || wShape[1] != c {
		panic(fmt.Sprintf("tensor: conv bwd weight shape %v inconsistent with dy %v and x %v", wShape, dy.Shape(), x.Shape()))
	}
	kDims := wShape[2:]
	checkSpec(spec, kDims)

	dw = New(wShape...)
	db = New(f)
	inVol := Volume(inDims)
	outVol := Volume(outDims)
	kVol := Volume(kDims)
	inStr := computeStrides(inDims)
	kCoords := enumerate(kDims)
	outCoords := enumerate(outDims)

	dyd, xd, dwd := dy.data, x.data, dw.data
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			dyBase := (ni*f + fi) * outVol
			for oi, oc := range outCoords {
				g := dyd[dyBase+oi]
				if g == 0 {
					continue
				}
				db.data[fi] += g
				for ki := 0; ki < kVol; ki++ {
					kc := kCoords[ki]
					inOff := 0
					ok := true
					for d := range oc {
						pos := oc[d]*spec.Stride[d] - spec.Pad[d] + kc[d]
						if pos < 0 || pos >= inDims[d] {
							ok = false
							break
						}
						inOff += pos * inStr[d]
					}
					if !ok {
						continue
					}
					for ci := 0; ci < c; ci++ {
						dwd[(fi*c+ci)*kVol+ki] += g * xd[(ni*c+ci)*inVol+inOff]
					}
				}
			}
		}
	}
	return dw, db
}

// enumerate lists all multi-indices of shape in row-major order.
func enumerate(shape []int) [][]int {
	out := make([][]int, 0, Volume(shape))
	for it := NewIndex(shape); it.Valid(); it.Next() {
		out = append(out, append([]int(nil), it.Current()...))
	}
	return out
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// posOffsets is the window-offset table posMajor reads: off[m*kVol+ki]
// is the flat input offset read by tap ki (row-major over k) of output
// position m (row-major over out), or -1 where the tap falls in the
// padding.
func posOffsets(in, out, k, stride, pad []int) []int {
	inStr := computeStrides(in)
	var off []int
	for _, o := range enumerate(out) {
		for _, t := range enumerate(k) {
			at := 0
			for d := range in {
				pos := o[d]*stride[d] - pad[d] + t[d]
				if pos < 0 || pos >= in[d] {
					at = -1
					break
				}
				at += pos * inStr[d]
			}
			off = append(off, at)
		}
	}
	return off
}

// posMajor is the position-major im2row lowering the tap-major tile
// replaced, kept whole so the three pos* kernels below are the
// production kernels as they were: patch[r*k+j] is tap j of output
// position m0+r, filled through the window-offset table, in tiles of a
// multiple of 8 positions within 2048 floats. The production kernels
// must reproduce their bits on either SIMD path.
type posMajor struct {
	off                    []int
	c, inVol, outVol, kVol int
	k, rows                int
	patch                  []float64
}

func newPosMajor(c int, inDims, outDims, kDims []int, spec ConvSpec) posMajor {
	lw := posMajor{
		off: posOffsets(inDims, outDims, kDims, spec.Stride, spec.Pad),
		c:   c, inVol: Volume(inDims), outVol: Volume(outDims), kVol: Volume(kDims),
	}
	lw.k = c * lw.kVol
	lw.rows = max(1, min(lw.outVol, max(8, 2048/max(1, lw.k)&^7)))
	lw.patch = make([]float64, lw.rows*lw.k)
	return lw
}

func (lw *posMajor) gather(xs []float64, m0, m1 int) {
	for m := m0; m < m1; m++ {
		offs := lw.off[m*lw.kVol : (m+1)*lw.kVol]
		row := lw.patch[(m-m0)*lw.k : (m-m0+1)*lw.k]
		for ci := 0; ci < lw.c; ci++ {
			xc := xs[ci*lw.inVol : (ci+1)*lw.inVol]
			for ki, o := range offs {
				if o >= 0 {
					row[ci*lw.kVol+ki] = xc[o]
				} else {
					row[ci*lw.kVol+ki] = 0
				}
			}
		}
	}
}

func (lw *posMajor) scatter(dxs []float64, m0, m1 int) {
	for m := m0; m < m1; m++ {
		offs := lw.off[m*lw.kVol : (m+1)*lw.kVol]
		row := lw.patch[(m-m0)*lw.k : (m-m0+1)*lw.k]
		for ci := 0; ci < lw.c; ci++ {
			xc := dxs[ci*lw.inVol : (ci+1)*lw.inVol]
			for ki, o := range offs {
				if o >= 0 {
					xc[o] += row[ci*lw.kVol+ki]
				}
			}
		}
	}
}

// posAxpy is dst += a*src, one rounded product and one rounded sum each.
func posAxpy(dst []float64, a float64, src []float64) {
	for i, v := range src[:len(dst)] {
		dst[i] += a * v
	}
}

// posDot4 returns acc[j] + p·w[j*ws:j*ws+len(p)] for four weight rows
// ws apart, each summed in index order in its own accumulator.
func posDot4(p, w []float64, ws int, acc [4]float64) [4]float64 {
	k := len(p)
	w0, w1, w2, w3 := w[:k], w[ws:ws+k], w[2*ws:2*ws+k], w[3*ws:3*ws+k]
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for i, v := range p {
		a0 += v * w0[i]
		a1 += v * w1[i]
		a2 += v * w2[i]
		a3 += v * w3[i]
	}
	return [4]float64{a0, a1, a2, a3}
}

// posConvForward: each output is posDot4 (dot1 for the filter tail) of its
// patch row and filter row, from the bias.
func posConvForward(x, w, b *Tensor, spec ConvSpec) *Tensor {
	n, c, inDims := splitActShape(x)
	f, _, kDims := splitWeightShape(w)
	shape := []int{n, f}
	for i := range inDims {
		shape = append(shape, ConvOutSize(inDims[i], kDims[i], spec.Stride[i], spec.Pad[i]))
	}
	y := New(shape...)
	lw := newPosMajor(c, inDims, shape[2:], kDims, spec)
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
				wf := w.data[fi*k : (fi+4)*k]
				for m := m0; m < m1; m++ {
					a := posDot4(lw.patch[(m-m0)*k:(m-m0+1)*k], wf, k, bias)
					for l := range a {
						ys[(fi+l)*outVol+m] = a[l]
					}
				}
			}
			for ; fi < f; fi++ {
				bf := 0.0
				if b != nil {
					bf = b.data[fi]
				}
				for m := m0; m < m1; m++ {
					ys[fi*outVol+m] = dot1(lw.patch[(m-m0)*k:(m-m0+1)*k], w.data[fi*k:(fi+1)*k], bf)
				}
			}
		}
	}
	return y
}

// posConvBackwardData: each patch row sums g·w over the filters whose dy
// entry g is nonzero, from +0, and the tile is scattered position by
// position.
func posConvBackwardData(dy, w *Tensor, inShape []int, spec ConvSpec) *Tensor {
	n, f, outDims := splitActShape(dy)
	_, c, kDims := splitWeightShape(w)
	dx := New(inShape...)
	lw := newPosMajor(c, inShape[2:], outDims, kDims, spec)
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
						posAxpy(lw.patch[r*k:(r+1)*k], g, wrow)
					}
				}
			}
			lw.scatter(dxs, m0, m1)
		}
	}
	return dx
}

// posConvBackwardWeight: every dw and db element sums its nonzero dy
// contributions from +0 in (sample, output position) order.
func posConvBackwardWeight(dy, x *Tensor, wShape []int, spec ConvSpec) (dw, db *Tensor) {
	n, f, outDims := splitActShape(dy)
	_, c, inDims := splitActShape(x)
	dw, db = New(wShape...), New(f)
	lw := newPosMajor(c, inDims, outDims, wShape[2:], spec)
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
						posAxpy(dwrow, g, lw.patch[r*k:(r+1)*k])
					}
				}
			}
		}
	}
	return dw, db
}
