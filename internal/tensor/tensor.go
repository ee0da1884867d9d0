// Package tensor provides dense N-dimensional tensors and the numeric
// kernels (convolution, pooling, fully-connected, batch-normalization,
// ReLU) needed to train small CNNs for real.
//
// The package exists so that the distributed-training runtime
// (internal/dist) can execute every parallel strategy on actual data and
// verify, value by value, that partitioned execution matches the
// sequential baseline — the correctness methodology of §4.5.2 of the
// ParaDL paper. Everything is float64. On amd64 the convolution's inner
// loops run AVX2 assembly (simd_amd64.s) that returns the scalar Go
// loops' bits; elsewhere the scalar loops run.
//
// Every layer kernel has an Into form that writes into destinations the
// caller owns (ConvForwardInto, PoolBackwardInto, FCForwardInto, …). It
// writes every element of them and assumes nothing about what they
// held; where it accumulates, it clears what it accumulates into first.
// The allocating form is New plus the Into form, so each kernel has one
// body. The window kernels (convolution and pooling) also take an
// optional Scratch for their tile and planes, which a caller keeps per
// layer to run a training step without allocating. No state is shared
// between calls beyond what the caller passes in: PE goroutines call the
// kernels concurrently, each with its own destinations and Scratch.
//
// Convolution and pooling share one window geometry (plane.go): each
// call copies a sample once into planes with a border of pad elements
// (zero, or −Inf for a max), so every (tap, output row) pair is an
// unclipped strided run of a plane row, and the kernels walk a pass of
// row runs tap by tap. Convolution, of any spatial rank, is one
// lowering (conv.go): each call fills a small cache-resident tile of
// input patches, tap-major, from those runs, and the arithmetic is GEMM
// against the weight in its own [F, C·k...] row-major layout — forward
// and backward-data as register blocks of 4 lanes × 8 columns over the
// tile or dy rows, backward-weight as taps × filters reduced over
// positions — plus the transposed walk (col2im) that scatters the input
// gradient into the planes. Pooling reduces the same runs straight into
// its outputs. ReLU and max-pool select with bit masks and conditional
// moves, not branches on the data. The direct N-d loops these replaced
// survive only in conv_ref_test.go and pool_ref_test.go, as the
// reference the kernels are tested against, next to the position-major
// lowering the tap-major tile replaced.
//
// Numeric contract. Every reduction runs in a fixed order that depends
// only on the operand shapes — never on the data, the tile size, the
// goroutine or the time — so a kernel called twice on the same inputs
// returns the same bits. That is what the runtime's bit-identity (==)
// guarantees rest on: overlap on vs off, resume from any checkpoint,
// traced vs untraced, chain vs DAG executor, run to run. A partitioned
// plan, by contrast, splits a reduction across PEs (over channels,
// samples or spatial blocks) and so rounds differently from the serial
// run; those guarantees are stated to a tolerance, ≤1e-6 on the loss
// series of every plan against sequential SGD. A change to a reduction
// order here moves loss series at rounding level and must leave both
// kinds of guarantee standing.
//
// Layout convention: activations are [N, C, spatial...], convolution
// weights are [F, C, spatial...]. All tensors are row-major.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major N-dimensional array of float64.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64
}

// New creates a zero-filled tensor with the given shape. A scalar is
// represented by an empty shape. New panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Formatting a copy keeps shape from escaping, so callers'
			// variadic New(a, b, ...) argument lists stay on their stacks.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return newTensor(make([]float64, n), shape)
}

// FromSlice creates a tensor with the given shape, adopting data as its
// backing storage (no copy). len(data) must equal the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := Volume(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return newTensor(data, shape)
}

// newTensor wraps data in a tensor that owns a private copy of shape.
func newTensor(data []float64, shape []int) *Tensor {
	r := len(shape)
	meta := make([]int, 2*r) // shape and strides share one allocation
	t := &Tensor{shape: meta[:r:r], strides: meta[r:], data: data}
	copy(t.shape, shape)
	fillStrides(t.strides, t.shape)
	return t
}

// fillStrides writes the row-major strides of shape into strides.
func fillStrides(strides, shape []int) {
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
}

// Volume returns the number of elements implied by shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice (shared, not copied).
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

// AddAt adds v to the element at the given multi-index.
func (t *Tensor) AddAt(v float64, idx ...int) {
	t.data[t.offset(idx)] += v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the same data with a new shape of equal
// volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if Volume(shape) != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.data), shape))
	}
	return FromSlice(t.data, shape...)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Add accumulates o into t element-wise, one rounded sum per element
// (addTo: four lanes at a time where the CPU has AVX2). Shapes must
// match exactly.
func (t *Tensor) Add(o *Tensor) {
	t.MustSameShape(o)
	addTo(t.data, o.data)
}

// Sub subtracts o from t element-wise.
func (t *Tensor) Sub(o *Tensor) {
	t.MustSameShape(o)
	for i, v := range o.data {
		t.data[i] -= v
	}
}

// AXPY computes t += a*x element-wise.
func (t *Tensor) AXPY(a float64, x *Tensor) {
	t.MustSameShape(x)
	for i, v := range x.data {
		t.data[i] += a * v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// MaxAbs returns the maximum absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

// MustSameShape panics unless o has exactly t's shape: the one guard,
// and message, of every element-wise pairing of two tensors.
func (t *Tensor) MustSameShape(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, o.shape))
	}
}

// AllClose reports whether every element of t is within tol of the
// corresponding element of o. Shapes must match.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxDiff returns the largest absolute element-wise difference between t
// and o. Shapes must match.
func (t *Tensor) MaxDiff(o *Tensor) float64 {
	t.MustSameShape(o)
	m := 0.0
	for i, v := range t.data {
		if d := math.Abs(v - o.data[i]); d > m {
			m = d
		}
	}
	return m
}

// String renders a compact description (shape plus leading values) for
// debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n < len(t.data) {
		b.WriteString(" ...")
	}
	b.WriteString("]")
	return b.String()
}
