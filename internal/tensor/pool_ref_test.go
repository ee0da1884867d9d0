package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The per-element bounds-check pooling loops PoolForward and PoolBackward
// were before they moved onto the window-offset table, kept verbatim as
// the reference the table-driven loops must match bit for bit.

func refPoolForward(x *Tensor, spec PoolSpec) (y *Tensor, argmax []int) {
	n, c, inDims := splitActShape(x)
	dims := len(inDims)
	if len(spec.Window) != dims || len(spec.Stride) != dims || len(spec.Pad) != dims {
		panic(fmt.Sprintf("tensor: pool spec rank mismatch with spatial rank %d", dims))
	}
	outDims := make([]int, dims)
	for i := range inDims {
		outDims[i] = PoolOutSize(inDims[i], spec.Window[i], spec.Stride[i], spec.Pad[i])
	}
	y = New(append([]int{n, c}, outDims...)...)

	inVol := Volume(inDims)
	outVol := Volume(outDims)
	inStr := computeStrides(inDims)
	winCoords := enumerate(spec.Window)
	outCoords := enumerate(outDims)
	winVol := Volume(spec.Window)

	if spec.Kind == MaxPool {
		argmax = make([]int, n*c*outVol)
	}

	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * inVol
			yBase := (ni*c + ci) * outVol
			for oi, oc := range outCoords {
				switch spec.Kind {
				case MaxPool:
					best := math.Inf(-1)
					bestOff := -1
					for _, wc := range winCoords {
						inOff := 0
						ok := true
						for d := range oc {
							pos := oc[d]*spec.Stride[d] - spec.Pad[d] + wc[d]
							if pos < 0 || pos >= inDims[d] {
								ok = false
								break
							}
							inOff += pos * inStr[d]
						}
						if !ok {
							continue
						}
						if v := x.data[base+inOff]; v > best {
							best = v
							bestOff = inOff
						}
					}
					if bestOff < 0 {
						best = 0 // window entirely in padding
					}
					y.data[yBase+oi] = best
					argmax[yBase+oi] = bestOff
				case AvgPool:
					sum := 0.0
					for _, wc := range winCoords {
						inOff := 0
						ok := true
						for d := range oc {
							pos := oc[d]*spec.Stride[d] - spec.Pad[d] + wc[d]
							if pos < 0 || pos >= inDims[d] {
								ok = false
								break
							}
							inOff += pos * inStr[d]
						}
						if ok {
							sum += x.data[base+inOff]
						}
					}
					y.data[yBase+oi] = sum / float64(winVol)
				default:
					panic("tensor: unknown pool kind")
				}
			}
		}
	}
	return y, argmax
}

func refPoolBackward(dy *Tensor, inShape []int, spec PoolSpec, argmax []int) *Tensor {
	n, c, outDims := splitActShape(dy)
	if len(inShape) != 2+len(outDims) || inShape[0] != n || inShape[1] != c {
		panic(fmt.Sprintf("tensor: pool bwd input shape %v inconsistent with dy %v", inShape, dy.Shape()))
	}
	inDims := inShape[2:]
	dx := New(inShape...)

	inVol := Volume(inDims)
	outVol := Volume(outDims)
	inStr := computeStrides(inDims)
	winCoords := enumerate(spec.Window)
	outCoords := enumerate(outDims)
	winVol := Volume(spec.Window)

	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * inVol
			yBase := (ni*c + ci) * outVol
			for oi, oc := range outCoords {
				g := dy.data[yBase+oi]
				if g == 0 {
					continue
				}
				switch spec.Kind {
				case MaxPool:
					off := argmax[yBase+oi]
					if off >= 0 {
						dx.data[base+off] += g
					}
				case AvgPool:
					share := g / float64(winVol)
					for _, wc := range winCoords {
						inOff := 0
						ok := true
						for d := range oc {
							pos := oc[d]*spec.Stride[d] - spec.Pad[d] + wc[d]
							if pos < 0 || pos >= inDims[d] {
								ok = false
								break
							}
							inOff += pos * inStr[d]
						}
						if ok {
							dx.data[base+inOff] += share
						}
					}
				default:
					panic("tensor: unknown pool kind")
				}
			}
		}
	}
	return dx
}

// The table-driven pooling visits every window in the reference's order,
// so max-pool argmax ties and avg-pool sums are the same bits.
func TestPoolBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		rank := 1 + rng.Intn(3)
		spec := PoolSpec{Kind: PoolKind(trial % 2)}
		shape := []int{1 + rng.Intn(2), 1 + rng.Intn(3)}
		for d := 0; d < rank; d++ {
			win := 1 + rng.Intn(3)
			pad := rng.Intn(win)
			shape = append(shape, max(1, win-2*pad)+rng.Intn(6))
			spec.Window = append(spec.Window, win)
			spec.Stride = append(spec.Stride, 1+rng.Intn(3))
			spec.Pad = append(spec.Pad, pad)
		}
		// Few distinct values, so max-pool windows tie often.
		x := New(shape...)
		for i := range x.data {
			x.data[i] = float64(rng.Intn(4)) - 1.5
		}
		y, arg := PoolForward(x, spec)
		yRef, argRef := refPoolForward(x, spec)
		if !EqualShapes(y.Shape(), yRef.Shape()) || !reflect.DeepEqual(y.data, yRef.data) || !reflect.DeepEqual(arg, argRef) {
			t.Fatalf("%+v on %v: forward differs from reference", spec, shape)
		}
		dy := New(y.Shape()...).RandN(rng, 1)
		for i := range dy.data {
			if rng.Intn(3) == 0 {
				dy.data[i] = 0
			}
		}
		dx, dxRef := PoolBackward(dy, shape, spec, arg), refPoolBackward(dy, shape, spec, argRef)
		if !reflect.DeepEqual(dx.data, dxRef.data) {
			t.Fatalf("%+v on %v: backward differs from reference", spec, shape)
		}
	}
}

// A dy whose spatial dims are not the pooling output of the input used
// to be accepted: AvgPool skipped the positions out of range, and MaxPool
// read a smaller dy's argmax misaligned. A short argmax died on a bare
// index. Each is now the kernel's own panic.
func TestPoolBackwardShapeMismatchPanics(t *testing.T) {
	x := New(2, 3, 6, 6)
	inShape := x.Shape()
	wantPanic := func(t *testing.T, call func()) {
		t.Helper()
		defer func() {
			if msg, ok := recover().(string); !ok || !strings.HasPrefix(msg, "tensor: ") {
				t.Fatalf("want the kernel's shape-mismatch panic, got %v", msg)
			}
		}()
		call()
	}
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		spec := UniformPool(kind, 2, 2, 2, 0) // output is 3x3
		_, argmax := PoolForward(x, spec)
		for name, dyShape := range map[string][]int{
			"too small": {2, 3, 2, 3},
			"too large": {2, 3, 3, 4},
			"rank":      {2, 3, 9},
		} {
			dy := New(dyShape...)
			t.Run(fmt.Sprintf("kind=%d/%s", kind, name), func(t *testing.T) {
				wantPanic(t, func() { PoolBackward(dy, inShape, spec, argmax) })
			})
		}
		t.Run(fmt.Sprintf("kind=%d/spec rank", kind), func(t *testing.T) {
			wantPanic(t, func() { PoolBackward(New(2, 3, 3, 3), inShape, UniformPool(kind, 3, 2, 2, 0), argmax) })
		})
	}
	_, argmax := PoolForward(x, UniformPool(MaxPool, 2, 2, 2, 0))
	dy := New(2, 3, 3, 3)
	for name, arg := range map[string][]int{"short argmax": argmax[:len(argmax)-1], "nil argmax": nil} {
		t.Run(name, func(t *testing.T) {
			wantPanic(t, func() { PoolBackward(dy, inShape, UniformPool(MaxPool, 2, 2, 2, 0), arg) })
		})
	}
}
