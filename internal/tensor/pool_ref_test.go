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
// were before they moved onto a window-offset table and then onto the
// bordered planes, kept verbatim as the reference the tap-major kernels
// must match bit for bit.

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

// The tap-major pooling visits every window in the reference's order,
// so max-pool argmax ties and avg-pool sums are the same bits, compared
// with math.Float64bits (a zero's sign counts, NaN compares). Max-pool
// inputs are a few values, so windows tie often, salted with NaN of
// both signs and two payloads, ±Inf and −0; avg-pool inputs and every
// dy span 12 decades, so a sum reassociated anywhere shows. Every third
// trial forces overlapping windows (stride < window), where one input
// element takes up to window contributions in backward, and every third
// a pad of at least the window, whose edge windows are all padding.
func TestPoolBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	specials := []float64{
		math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000123),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	}
	wide := func() float64 {
		return (rng.Float64() + 0.5) * math.Pow(10, 12*rng.Float64()-6) * float64(1-2*rng.Intn(2))
	}
	for trial := 0; trial < 300; trial++ {
		rank := 1 + rng.Intn(3)
		spec := PoolSpec{Kind: PoolKind(trial % 2)}
		shape := []int{1 + rng.Intn(2), 1 + rng.Intn(3)}
		for d := 0; d < rank; d++ {
			win, stride := 1+rng.Intn(3), 1+rng.Intn(3)
			pad := rng.Intn(win)
			switch trial / 2 % 3 {
			case 1: // overlapping windows
				win = 2 + rng.Intn(2)
				stride = 1 + rng.Intn(win-1)
			case 2: // all-padding windows at the edges
				pad = win + rng.Intn(2)
			}
			shape = append(shape, max(1, win-2*pad)+rng.Intn(6))
			spec.Window = append(spec.Window, win)
			spec.Stride = append(spec.Stride, stride)
			spec.Pad = append(spec.Pad, pad)
		}
		x := New(shape...)
		for i := range x.data {
			switch {
			case spec.Kind == AvgPool:
				x.data[i] = wide()
			case rng.Intn(6) == 0:
				x.data[i] = specials[rng.Intn(len(specials))]
			default:
				x.data[i] = float64(rng.Intn(4)) - 1.5
			}
		}
		what := fmt.Sprintf("trial %d: %+v on %v", trial, spec, shape)
		y, arg := PoolForward(x, spec)
		yRef, argRef := refPoolForward(x, spec)
		assertSameBits(t, what+" y", y, yRef)
		if !reflect.DeepEqual(arg, argRef) {
			t.Fatalf("%s: argmax %v, reference %v", what, arg, argRef)
		}
		dy := New(y.Shape()...)
		for i := range dy.data {
			switch rng.Intn(4) {
			case 0:
				dy.data[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
			default:
				dy.data[i] = wide()
			}
		}
		assertSameBits(t, what+" dx", PoolBackward(dy, shape, spec, arg), refPoolBackward(dy, shape, spec, argRef))
	}
}

// A zero-extent AvgPool window used to return NaN everywhere (0/0),
// from an output larger than its input (6x5 from 5x5), and a negative
// pad cropped the input. Both kinds now reject either spec, forward and
// backward.
func TestPoolRejectsDegenerateGeometry(t *testing.T) {
	x := New(1, 2, 5, 5)
	for name, g := range map[string]struct{ win, pad []int }{
		"zero extent":  {[]int{0, 2}, []int{0, 0}},
		"negative pad": {[]int{2, 2}, []int{0, -1}},
	} {
		for _, kind := range []PoolKind{MaxPool, AvgPool} {
			spec := PoolSpec{Kind: kind, Window: g.win, Stride: []int{1, 1}, Pad: g.pad}
			// dy and argmax have the shapes the size arithmetic alone
			// gives, so only the spec check can refuse the backward call.
			dy := New(1, 2, PoolOutSize(5, g.win[0], 1, g.pad[0]), PoolOutSize(5, g.win[1], 1, g.pad[1]))
			for dir, call := range map[string]func(){
				"forward":  func() { PoolForward(x, spec) },
				"backward": func() { PoolBackward(dy, x.Shape(), spec, make([]int, dy.Len())) },
			} {
				t.Run(fmt.Sprintf("%s/kind=%d/%s", name, kind, dir), func(t *testing.T) {
					defer func() {
						if msg, ok := recover().(string); !ok || !strings.HasPrefix(msg, "tensor: ") {
							t.Fatalf("want a tensor: panic, got %v", msg)
						}
					}()
					call()
				})
			}
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
