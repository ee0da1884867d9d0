package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// naiveConv2D is an independent, index-by-index 2-D reference used to
// cross-check the generic N-d kernel.
func naiveConv2D(x, w, b *Tensor, stride, pad int) *Tensor {
	n, c := x.Dim(0), x.Dim(1)
	h, wd := x.Dim(2), x.Dim(3)
	f, k := w.Dim(0), w.Dim(2)
	oh := ConvOutSize(h, k, stride, pad)
	ow := ConvOutSize(wd, k, stride, pad)
	y := New(n, f, oh, ow)
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc := 0.0
					if b != nil {
						acc = b.At(fi)
					}
					for ci := 0; ci < c; ci++ {
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								iy := oy*stride - pad + ky
								ix := ox*stride - pad + kx
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								acc += x.At(ni, ci, iy, ix) * w.At(fi, ci, ky, kx)
							}
						}
					}
					y.Set(acc, ni, fi, oy, ox)
				}
			}
		}
	}
	return y
}

func TestConvForwardMatchesNaive2D(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ n, c, h, w, f, k, stride, pad int }{
		{1, 1, 5, 5, 1, 3, 1, 0},
		{2, 3, 8, 8, 4, 3, 1, 1},
		{2, 2, 9, 7, 3, 3, 2, 1},
		{1, 4, 6, 6, 2, 1, 1, 0},
		{3, 2, 10, 10, 5, 5, 2, 2},
	}
	for _, cse := range cases {
		x := New(cse.n, cse.c, cse.h, cse.w).RandN(rng, 1)
		w := New(cse.f, cse.c, cse.k, cse.k).RandN(rng, 1)
		b := New(cse.f).RandN(rng, 1)
		got := ConvForward(x, w, b, UniformConv(2, cse.stride, cse.pad))
		want := naiveConv2D(x, w, b, cse.stride, cse.pad)
		if !got.AllClose(want, 1e-9) {
			t.Fatalf("conv fwd mismatch for %+v: max diff %g", cse, got.MaxDiff(want))
		}
	}
}

func TestConvForward1DIdentityKernel(t *testing.T) {
	// 1x1 conv with identity weight acts as a channel mixer; with C=F=1
	// and w=1 it is the identity.
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 4)
	w := FromSlice([]float64{1}, 1, 1, 1)
	y := ConvForward(x, w, nil, UniformConv(1, 1, 0))
	if !y.AllClose(x, 0) {
		t.Fatalf("identity conv changed input: %v", y)
	}
}

func TestConvForward3DVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := New(1, 2, 4, 4, 4).RandN(rng, 1)
	w := New(3, 2, 2, 2, 2).RandN(rng, 1)
	y := ConvForward(x, w, nil, UniformConv(3, 2, 0))
	if !EqualShapes(y.Shape(), []int{1, 3, 2, 2, 2}) {
		t.Fatalf("3D conv out shape %v", y.Shape())
	}
	// spot-check one output element against a hand computation
	acc := 0.0
	for ci := 0; ci < 2; ci++ {
		for kz := 0; kz < 2; kz++ {
			for ky := 0; ky < 2; ky++ {
				for kx := 0; kx < 2; kx++ {
					acc += x.At(0, ci, kz, ky, kx) * w.At(1, ci, kz, ky, kx)
				}
			}
		}
	}
	if d := y.At(0, 1, 0, 0, 0) - acc; d > 1e-12 || d < -1e-12 {
		t.Fatalf("3D conv spot check: %v vs %v", y.At(0, 1, 0, 0, 0), acc)
	}
}

// Finite-difference check of the backward-data pass: the analytic
// gradient of 0.5*||y||² w.r.t. x must match numeric differentiation.
func TestConvBackwardDataFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := New(1, 2, 5, 5).RandN(rng, 0.5)
	w := New(3, 2, 3, 3).RandN(rng, 0.5)
	spec := UniformConv(2, 1, 1)

	y := ConvForward(x, w, nil, spec)
	dy := y.Clone() // dL/dy for L = 0.5 Σ y²
	dx := ConvBackwardData(dy, w, x.Shape(), spec)

	const eps = 1e-5
	for trial := 0; trial < 20; trial++ {
		i := rng.Intn(x.Len())
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := halfSq(ConvForward(x, w, nil, spec))
		x.Data()[i] = orig - eps
		lm := halfSq(ConvForward(x, w, nil, spec))
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if d := num - dx.Data()[i]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("dx[%d]: analytic %g vs numeric %g", i, dx.Data()[i], num)
		}
	}
}

func TestConvBackwardWeightFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := New(2, 2, 5, 5).RandN(rng, 0.5)
	w := New(2, 2, 3, 3).RandN(rng, 0.5)
	b := New(2).RandN(rng, 0.5)
	spec := UniformConv(2, 2, 1)

	y := ConvForward(x, w, b, spec)
	dy := y.Clone()
	dw, db := ConvBackwardWeight(dy, x, w.Shape(), spec)

	const eps = 1e-5
	for trial := 0; trial < 20; trial++ {
		i := rng.Intn(w.Len())
		orig := w.Data()[i]
		w.Data()[i] = orig + eps
		lp := halfSq(ConvForward(x, w, b, spec))
		w.Data()[i] = orig - eps
		lm := halfSq(ConvForward(x, w, b, spec))
		w.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if d := num - dw.Data()[i]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("dw[%d]: analytic %g vs numeric %g", i, dw.Data()[i], num)
		}
	}
	for i := 0; i < b.Len(); i++ {
		orig := b.Data()[i]
		b.Data()[i] = orig + eps
		lp := halfSq(ConvForward(x, w, b, spec))
		b.Data()[i] = orig - eps
		lm := halfSq(ConvForward(x, w, b, spec))
		b.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if d := num - db.Data()[i]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("db[%d]: analytic %g vs numeric %g", i, db.Data()[i], num)
		}
	}
}

func halfSq(y *Tensor) float64 {
	s := 0.0
	for _, v := range y.Data() {
		s += 0.5 * v * v
	}
	return s
}

// The defining linearity property of convolution: conv(a·x1 + x2) =
// a·conv(x1) + conv(x2) with bias disabled.
func TestConvLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w := New(2, 3, 3, 3).RandN(rng, 1)
	spec := UniformConv(2, 1, 1)
	for trial := 0; trial < 10; trial++ {
		x1 := New(1, 3, 6, 6).RandN(rng, 1)
		x2 := New(1, 3, 6, 6).RandN(rng, 1)
		a := rng.Float64()*4 - 2
		mix := x1.Clone()
		mix.Scale(a)
		mix.Add(x2)
		lhs := ConvForward(mix, w, nil, spec)
		rhs := ConvForward(x1, w, nil, spec)
		rhs.Scale(a)
		rhs.Add(ConvForward(x2, w, nil, spec))
		if !lhs.AllClose(rhs, 1e-9) {
			t.Fatalf("linearity violated (a=%v): max diff %g", a, lhs.MaxDiff(rhs))
		}
	}
}

// Adjoint property: <conv(x), y> == <x, conv^T(y)> relates forward and
// backward-data as transpose operators.
func TestConvAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := New(4, 2, 3, 3).RandN(rng, 1)
	spec := UniformConv(2, 2, 1)
	for trial := 0; trial < 10; trial++ {
		x := New(2, 2, 7, 7).RandN(rng, 1)
		y := ConvForward(x, w, nil, spec)
		u := New(y.Shape()...).RandN(rng, 1)
		lhs := dot(y, u)
		xT := ConvBackwardData(u, w, x.Shape(), spec)
		rhs := dot(x, xT)
		if d := lhs - rhs; d > 1e-8 || d < -1e-8 {
			t.Fatalf("adjoint violated: %g vs %g", lhs, rhs)
		}
	}
}

func dot(a, b *Tensor) float64 {
	s := 0.0
	for i, v := range a.Data() {
		s += v * b.Data()[i]
	}
	return s
}

func TestConvChannelMismatchPanics(t *testing.T) {
	defer expectPanic(t, "channel mismatch")
	ConvForward(New(1, 3, 4, 4), New(2, 2, 3, 3), nil, UniformConv(2, 1, 1))
}

func TestConvSpecRankMismatchPanics(t *testing.T) {
	defer expectPanic(t, "spec rank mismatch")
	ConvForward(New(1, 1, 4, 4), New(1, 1, 3, 3), nil, UniformConv(3, 1, 1))
}

// convGeom is one convolution geometry of the differential suite.
type convGeom struct {
	n, c, f            int
	in, k, stride, pad []int
}

func (g convGeom) spec() ConvSpec { return ConvSpec{Stride: g.stride, Pad: g.pad} }

// randomConvGeom draws a rank-1..3 geometry with per-dimension (so
// generally non-uniform) kernel, stride in 1..3 and pad in 0..k-1.
func randomConvGeom(rng *rand.Rand) convGeom {
	rank := 1 + rng.Intn(3)
	g := convGeom{
		n: 1 + rng.Intn(2),
		c: 1 + rng.Intn(3),
		f: []int{1, 3, 4, 5, 8, 33}[rng.Intn(6)],
	}
	for d := 0; d < rank; d++ {
		in := 1 + rng.Intn(9-2*rank)
		k := 1 + rng.Intn(3)
		p := rng.Intn(k)
		if k > in+2*p {
			k = in + 2*p
		}
		g.in, g.k = append(g.in, in), append(g.k, k)
		g.stride, g.pad = append(g.stride, 1+rng.Intn(3)), append(g.pad, p)
	}
	return g
}

// dyKinds are the upstream gradients the differential suite feeds the
// backward kernels. The kernels sum densely while the position-major
// kernels skipped zero dy, so the zeros are the edge cases: "sparse"
// keeps a quarter of the entries (a post-ReLU/pool gradient), "zero"
// none, and "holes" clears the first sample, the first output row of
// every (sample, filter) plane, and an eighth of the rest. Every zero is
// +0 or -0 at random.
var dyKinds = []string{"dense", "sparse", "zero", "holes"}

func makeDy(rng *rand.Rand, shape []int, kind string) *Tensor {
	dy := New(shape...).RandN(rng, 1)
	sample, row := Volume(shape[1:]), shape[len(shape)-1]
	plane := Volume(shape[2:])
	for i := range dy.data {
		switch {
		case kind == "sparse" && rng.Intn(4) != 0,
			kind == "zero",
			kind == "holes" && (i < sample || i%plane < row || rng.Intn(8) == 0):
			dy.data[i] = 0
			if rng.Intn(2) == 0 {
				dy.data[i] = math.Copysign(0, -1)
			}
		}
	}
	return dy
}

// checkConvAgainstReference runs all three kernels on geometry g, with a
// dy of the given kind and the bias present or nil, once on the SIMD
// path and once forced onto the scalar loops. Both must return the bits
// of the position-major kernels (conv_ref_test.go), and all of it must
// match the direct-loop reference. ConvBackwardWeightInto writes into
// NaN-filled destinations, so an element it fails to overwrite fails the
// comparison.
func checkConvAgainstReference(t *testing.T, rng *rand.Rand, g convGeom, dyKind string, withBias bool) {
	t.Helper()
	const tol = 1e-12
	x := New(append([]int{g.n, g.c}, g.in...)...).RandN(rng, 1)
	w := New(append([]int{g.f, g.c}, g.k...)...).RandN(rng, 1)
	var b *Tensor
	if withBias {
		b = New(g.f).RandN(rng, 1)
	}
	spec := g.spec()
	yRef := refConvForward(x, w, b, spec)
	dy := makeDy(rng, yRef.Shape(), dyKind)
	type convResult struct{ y, dx, dw, db *Tensor }
	run := func() convResult {
		r := convResult{y: ConvForward(x, w, b, spec), dx: ConvBackwardData(dy, w, x.Shape(), spec)}
		r.dw, r.db = nanFilled(w.Shape()...), nanFilled(g.f)
		ConvBackwardWeightInto(r.dw, r.db, dy, x, spec)
		return r
	}
	simd := run()
	restore := setSIMD(false)
	scalar := run()
	restore()
	pos := convResult{y: posConvForward(x, w, b, spec), dx: posConvBackwardData(dy, w, x.Shape(), spec)}
	pos.dw, pos.db = posConvBackwardWeight(dy, x, w.Shape(), spec)
	what := fmt.Sprintf("%+v dy=%s bias=%v", g, dyKind, withBias)
	for _, path := range []struct {
		name string
		r    convResult
	}{{"SIMD", simd}, {"scalar", scalar}} {
		assertSameBits(t, what+" "+path.name+" y", path.r.y, pos.y)
		assertSameBits(t, what+" "+path.name+" dx", path.r.dx, pos.dx)
		assertSameBits(t, what+" "+path.name+" dw", path.r.dw, pos.dw)
		assertSameBits(t, what+" "+path.name+" db", path.r.db, pos.db)
	}

	if !scalar.y.AllClose(yRef, tol) {
		t.Fatalf("%s: forward differs from reference (shape %v vs %v, max diff %g)",
			what, scalar.y.Shape(), yRef.Shape(), scalar.y.MaxDiff(yRef))
	}
	if dxRef := refConvBackwardData(dy, w, x.Shape(), spec); !scalar.dx.AllClose(dxRef, tol) {
		t.Fatalf("%s: backward-data differs from reference (max diff %g)", what, scalar.dx.MaxDiff(dxRef))
	}
	// Backward-weight kept the reference's accumulation order, (sample,
	// output position) per element, so it matches exactly.
	dwRef, dbRef := refConvBackwardWeight(dy, x, w.Shape(), spec)
	assertSameBits(t, what+" dw vs reference", scalar.dw, dwRef)
	assertSameBits(t, what+" db vs reference", scalar.db, dbRef)
}

func TestConvMatchesReferenceRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(2021))
	for trial := 0; trial < 300; trial++ {
		checkConvAgainstReference(t, rng, randomConvGeom(rng), dyKinds[trial%len(dyKinds)], trial%2 == 0)
	}
}

// The SIMD GEMMs take blocks of 4 lanes x 8 columns and leave the rest
// to the scalar loops, so the edge cases walk every remainder: F in
// {1, 3, 4, 5, 8, 33}, tap counts off a multiple of 4 and 8, and tiles
// of 1, 7, 8, 9 and 17 positions; and the tile's own edges: output rows
// cut across tiles, strided and padded runs, 3-D rows.
func TestConvMatchesReferenceEdgeGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	cases := []struct {
		name string
		g    convGeom
	}{
		{"1x1 kernel", convGeom{n: 2, c: 3, f: 5, in: []int{4, 5}, k: []int{1, 1}, stride: []int{1, 1}, pad: []int{0, 0}}},
		{"1x1 kernel strided", convGeom{n: 1, c: 2, f: 4, in: []int{5, 5}, k: []int{1, 1}, stride: []int{2, 2}, pad: []int{0, 0}}},
		{"kernel == input (FC)", convGeom{n: 3, c: 2, f: 3, in: []int{3, 4}, k: []int{3, 4}, stride: []int{1, 1}, pad: []int{0, 0}}},
		{"single channel/filter", convGeom{n: 1, c: 1, f: 1, in: []int{6}, k: []int{3}, stride: []int{1}, pad: []int{2}}},
		{"rank 0", convGeom{n: 3, c: 5, f: 9, in: []int{}, k: []int{}, stride: []int{}, pad: []int{}}},
		{"non-uniform 3-D", convGeom{n: 1, c: 2, f: 5, in: []int{5, 3, 4}, k: []int{3, 1, 2}, stride: []int{2, 1, 3}, pad: []int{2, 0, 1}}},
		{"3-D strided, 8 filters", convGeom{n: 2, c: 3, f: 8, in: []int{7, 9, 10}, k: []int{3, 3, 3}, stride: []int{2, 2, 2}, pad: []int{1, 1, 1}}},
		{"window wider than input", convGeom{n: 1, c: 1, f: 3, in: []int{1, 2}, k: []int{3, 3}, stride: []int{1, 2}, pad: []int{1, 2}}},
		// 25 output positions of 200 taps: one tile of five whole rows.
		{"several rows", convGeom{n: 2, c: 8, f: 6, in: []int{9, 9}, k: []int{5, 5}, stride: []int{1, 1}, pad: []int{0, 0}}},
		// 1000 taps: one 3-position row, one tile.
		{"patch row near tile size", convGeom{n: 1, c: 10, f: 4, in: []int{10, 12}, k: []int{10, 10}, stride: []int{1, 1}, pad: []int{0, 0}}},
		{"patch row beyond tile", convGeom{n: 1, c: 50, f: 2, in: []int{10, 10}, k: []int{10, 10}, stride: []int{1, 1}, pad: []int{1, 1}}},
		// 2450 taps and 5-position rows, beyond the budget: tiles of 8, 8
		// and 4 positions, cut across rows.
		{"patch row beyond tile, F=8", convGeom{n: 1, c: 50, f: 8, in: []int{4, 5}, k: []int{7, 7}, stride: []int{1, 1}, pad: []int{3, 3}}},
		// 5000 taps: one output row of 30 cut into tiles of 8, 8, 8, 6.
		{"row cut across tiles", convGeom{n: 1, c: 200, f: 5, in: []int{5, 32}, k: []int{5, 5}, stride: []int{1, 1}, pad: []int{0, 1}}},
		// 8200 taps, more than patchFloats for one position: tiles of 8
		// and 6 positions across 7-position rows, padded columns included.
		{"taps beyond tile budget", convGeom{n: 1, c: 8200, f: 5, in: []int{2, 11}, k: []int{1, 1}, stride: []int{1, 2}, pad: []int{0, 1}}},
		{"row cut across tiles, strided", convGeom{n: 1, c: 100, f: 4, in: []int{3, 40}, k: []int{3, 9}, stride: []int{1, 2}, pad: []int{1, 4}}},
		{"tile of 1, F=33", convGeom{n: 2, c: 3, f: 33, in: []int{3, 3}, k: []int{3, 3}, stride: []int{1, 1}, pad: []int{0, 0}}},
		{"tile of 7, F=4", convGeom{n: 2, c: 2, f: 4, in: []int{7}, k: []int{1}, stride: []int{1}, pad: []int{0}}},
		{"tile of 8, k=1, F=8", convGeom{n: 2, c: 1, f: 8, in: []int{2, 4}, k: []int{1, 1}, stride: []int{1, 1}, pad: []int{0, 0}}},
		{"tile of 9, F=5", convGeom{n: 1, c: 3, f: 5, in: []int{3, 3}, k: []int{3, 3}, stride: []int{1, 1}, pad: []int{1, 1}}},
		{"tile of 17, F=33", convGeom{n: 2, c: 2, f: 33, in: []int{17}, k: []int{3}, stride: []int{1}, pad: []int{1}}},
		{"tile of 17, k=1, F=1", convGeom{n: 1, c: 1, f: 1, in: []int{17}, k: []int{1}, stride: []int{1}, pad: []int{0}}},
	}
	for _, c := range cases {
		for _, kind := range dyKinds {
			for _, withBias := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/dy=%s/bias=%v", c.name, kind, withBias), func(t *testing.T) {
					checkConvAgainstReference(t, rng, c.g, kind, withBias)
				})
			}
		}
	}
}

// A negative pad used to crop: ConvForward of a 5x5 input with pad -1
// returned its 3x3 interior. The bordered plane cannot hold a negative
// border, so every kernel rejects the spec, as it does a zero-extent
// kernel, which used to return the bias alone.
func TestConvRejectsDegenerateGeometry(t *testing.T) {
	x := New(1, 2, 5, 5)
	for name, g := range map[string]struct {
		k    []int
		spec ConvSpec
	}{
		"negative pad": {[]int{3, 3}, ConvSpec{Stride: []int{1, 1}, Pad: []int{-1, 0}}},
		"zero extent":  {[]int{0, 3}, ConvSpec{Stride: []int{1, 1}, Pad: []int{0, 0}}},
	} {
		w := New(append([]int{3, 2}, g.k...)...)
		// dy has the shape the size arithmetic alone gives, so only the
		// spec check can refuse the backward calls.
		dy := New(1, 3, ConvOutSize(5, g.k[0], 1, g.spec.Pad[0]), ConvOutSize(5, g.k[1], 1, g.spec.Pad[1]))
		for kernel, call := range map[string]func(){
			"forward":         func() { ConvForward(x, w, nil, g.spec) },
			"backward-data":   func() { ConvBackwardData(dy, w, x.Shape(), g.spec) },
			"backward-weight": func() { ConvBackwardWeight(dy, x, w.Shape(), g.spec) },
		} {
			t.Run(name+"/"+kernel, func(t *testing.T) {
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

// A dy whose spatial dims are not the convolution output of the input
// used to be accepted: positions out of range were silently skipped.
func TestConvBackwardShapeMismatchPanics(t *testing.T) {
	x := New(2, 3, 6, 6)
	w := New(4, 3, 3, 3)
	spec := UniformConv(2, 1, 1) // output is 6x6
	for name, dyShape := range map[string][]int{
		"too small": {2, 4, 5, 6},
		"too large": {2, 4, 6, 7},
		"rank":      {2, 4, 36},
	} {
		dy := New(dyShape...)
		t.Run("data/"+name, func(t *testing.T) {
			defer expectPanic(t, "dy shape mismatch")
			ConvBackwardData(dy, w, x.Shape(), spec)
		})
		t.Run("weight/"+name, func(t *testing.T) {
			defer expectPanic(t, "dy shape mismatch")
			ConvBackwardWeight(dy, x, w.Shape(), spec)
		})
	}
}

// A call allocates its result tensor and the lowering's scratch (the
// patch tile with room for packed dy, and the weight gradient's step
// list), so its heap objects do not grow with the output volume: the
// direct loops allocated one coordinate slice per output position, and
// the position-major lowering a window-offset table of outVol × kVol.
func TestConvAllocsIndependentOfOutputVolume(t *testing.T) {
	// The process's first GC cycle starts the mark workers, whose
	// goroutines are heap objects; run it before counting.
	runtime.GC()
	rng := rand.New(rand.NewSource(7))
	w := New(6, 3, 3, 3).RandN(rng, 1)
	spec := UniformConv(2, 1, 1)
	for _, side := range []int{4, 40} {
		x := New(2, 3, side, side).RandN(rng, 1)
		dy := ConvForward(x, w, nil, spec)
		xShape, wShape := x.Shape(), w.Shape()
		for name, op := range map[string]struct {
			ceiling float64
			call    func()
		}{
			"ConvForward":        {5, func() { ConvForward(x, w, nil, spec) }},
			"ConvBackwardData":   {4, func() { ConvBackwardData(dy, w, xShape, spec) }},
			"ConvBackwardWeight": {8, func() { ConvBackwardWeight(dy, x, wShape, spec) }},
		} {
			if got := testing.AllocsPerRun(5, op.call); got > op.ceiling {
				t.Errorf("%s on %dx%d: %v allocs per call, ceiling %v", name, side, side, got, op.ceiling)
			}
		}
	}
}

// Pooling's scratch (the bordered plane, avg-pool backward's shares)
// is one allocation per call next to its results, whatever the output
// volume: the window-offset table it replaced was outVol × winVol ints.
func TestPoolAllocsIndependentOfOutputVolume(t *testing.T) {
	runtime.GC()
	rng := rand.New(rand.NewSource(8))
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		for _, pad := range []int{0, 1} {
			spec := UniformPool(kind, 2, 3, 2, pad)
			for _, side := range []int{4, 40} {
				x := New(2, 3, side, side).RandN(rng, 1)
				xShape := x.Shape()
				y, argmax := PoolForward(x, spec)
				for name, op := range map[string]struct {
					ceiling float64
					call    func()
				}{
					// shape, y (3), argmax, plane
					"PoolForward": {6, func() { PoolForward(x, spec) }},
					// dx (3), scratch
					"PoolBackward": {4, func() { PoolBackward(y, xShape, spec, argmax) }},
				} {
					if got := testing.AllocsPerRun(5, op.call); got > op.ceiling {
						t.Errorf("%s kind=%d pad=%d on %dx%d: %v allocs per call, ceiling %v", name, kind, pad, side, side, got, op.ceiling)
					}
				}
			}
		}
	}
}

// With a lent Scratch and their destinations the Into forms allocate
// nothing once the scratch has grown: a network's training step reuses
// both from step to step.
func TestIntoKernelsWithLentScratchAllocateNothing(t *testing.T) {
	runtime.GC()
	rng := rand.New(rand.NewSource(9))
	x, w, b := New(2, 3, 9, 9).RandN(rng, 1), New(5, 3, 3, 3).RandN(rng, 1), New(5).RandN(rng, 1)
	spec := UniformConv(2, 1, 1)
	y := ConvForward(x, w, b, spec)
	dx, dw, db := New(x.Shape()...), New(w.Shape()...), New(5)
	var s Scratch
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		ps := UniformPool(kind, 2, 3, 2, 1)
		py, arg := PoolForward(x, ps)
		for name, call := range map[string]func(){
			"ConvForwardInto":        func() { ConvForwardInto(y, x, w, b, spec, &s) },
			"ConvBackwardDataInto":   func() { ConvBackwardDataInto(dx, y, w, spec, &s) },
			"ConvBackwardWeightInto": func() { ConvBackwardWeightInto(dw, db, y, x, spec, &s) },
			"PoolForwardInto":        func() { PoolForwardInto(py, arg, x, ps, &s) },
			"PoolBackwardInto":       func() { PoolBackwardInto(dx, py, ps, arg, &s) },
		} {
			call() // grows the scratch
			if got := testing.AllocsPerRun(5, call); got != 0 {
				t.Errorf("%s kind=%d: %v allocs per call with a lent scratch", name, kind, got)
			}
		}
	}
}

// PE goroutines run the kernels concurrently on shared, read-only
// operands. A call's tile and planes are its own, or come from a Scratch
// its goroutine lends to all its calls (a network's frame keeps one per
// layer of each PE's replica), so every goroutine must get the bits a
// lone call gets (run under -race in CI).
func TestConvPoolConcurrentCallsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := New(2, 3, 9, 9).RandN(rng, 1)
	w := New(5, 3, 3, 3).RandN(rng, 1)
	b := New(5).RandN(rng, 1)
	spec := UniformConv(2, 1, 1)
	maxPool, avgPool := UniformPool(MaxPool, 2, 3, 2, 1), UniformPool(AvgPool, 2, 3, 2, 1)
	xShape, wShape := x.Shape(), w.Shape()
	type result struct{ y, dx, dw, db, py, pdx, ay, adx *Tensor }
	step := func() result {
		var r result
		r.y = ConvForward(x, w, b, spec)
		r.dx = ConvBackwardData(r.y, w, xShape, spec)
		r.dw, r.db = ConvBackwardWeight(r.y, x, wShape, spec)
		var arg []int
		r.py, arg = PoolForward(x, maxPool)
		r.pdx = PoolBackward(r.py, xShape, maxPool, arg)
		r.ay, _ = PoolForward(x, avgPool)
		r.adx = PoolBackward(r.ay, xShape, avgPool, nil)
		return r
	}
	want := step()
	lentStep := func(s *Scratch) result {
		r := result{y: New(want.y.Shape()...), dx: New(xShape...), dw: New(wShape...), db: New(5),
			py: New(want.py.Shape()...), pdx: New(xShape...), ay: New(want.ay.Shape()...), adx: New(xShape...)}
		ConvForwardInto(r.y, x, w, b, spec, s)
		ConvBackwardDataInto(r.dx, r.y, w, spec, s)
		ConvBackwardWeightInto(r.dw, r.db, r.y, x, spec, s)
		arg := make([]int, r.py.Len())
		PoolForwardInto(r.py, arg, x, maxPool, s)
		PoolBackwardInto(r.pdx, r.py, maxPool, arg, s)
		PoolForwardInto(r.ay, nil, x, avgPool, s)
		PoolBackwardInto(r.adx, r.ay, avgPool, nil, s)
		return r
	}
	got := make([]result, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = step()
				return
			}
			var s Scratch
			lentStep(&s)
			got[i] = lentStep(&s)
		}()
	}
	wg.Wait()
	for i, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("goroutine %d computed different bits than the lone call", i)
		}
	}
}
