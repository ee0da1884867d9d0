package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestReLUForwardBackward(t *testing.T) {
	x := FromSlice([]float64{-1, 0, 2, -3}, 4)
	y := ReLUForward(x)
	want := []float64{0, 0, 2, 0}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("relu fwd[%d] = %v, want %v", i, y.Data()[i], v)
		}
	}
	dy := FromSlice([]float64{5, 5, 5, 5}, 4)
	dx := ReLUBackward(dy, x)
	wantDx := []float64{0, 0, 5, 0}
	for i, v := range wantDx {
		if dx.Data()[i] != v {
			t.Fatalf("relu bwd[%d] = %v, want %v", i, dx.Data()[i], v)
		}
	}
}

// refReLUForward and refReLUBackward are the branchy loops the masked
// kernels replaced.
func refReLUForward(x *Tensor) *Tensor {
	y := New(x.shape...)
	for i, v := range x.data {
		if v > 0 {
			y.data[i] = v
		}
	}
	return y
}

func refReLUBackward(dy, x *Tensor) *Tensor {
	dx := New(x.shape...)
	for i, v := range x.data {
		if v > 0 {
			dx.data[i] = dy.data[i]
		}
	}
	return dx
}

// ReLU's masks must give the branchy loops' bits on every special value,
// as x and as dy: ±0, ±Inf, NaN of both signs and two payloads, the
// subnormal and normal extremes, and random normals of both signs.
func TestReLUBitsOnSpecialValues(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000abc),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022,
	}
	rng := rand.New(rand.NewSource(21))
	vals := append([]float64(nil), specials...)
	for range 64 {
		vals = append(vals, rng.NormFloat64())
	}
	// Every value as x against every value as dy.
	n := len(vals)
	x, dy := New(n*n), New(n*n)
	for i, xv := range vals {
		for j, g := range vals {
			x.data[i*n+j], dy.data[i*n+j] = xv, g
		}
	}
	assertSameBits(t, "ReLUForward", ReLUForward(x), refReLUForward(x))
	assertSameBits(t, "ReLUBackward", ReLUBackward(dy, x), refReLUBackward(dy, x))
}

func TestFCForwardKnownValues(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 1, 2)
	w := FromSlice([]float64{1, 0, 0, 1, 1, 1}, 3, 2)
	b := FromSlice([]float64{10, 20, 30}, 3)
	y := FCForward(x, w, b)
	want := []float64{11, 22, 33}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("fc fwd[%d] = %v, want %v", i, y.Data()[i], v)
		}
	}
}

// refFCForward is the per-sample, single-accumulator loop FCForward
// replaced, kept as the bit-level reference.
func refFCForward(x, w, b *Tensor) *Tensor {
	n := x.shape[0]
	in := x.Len() / n
	out := w.shape[0]
	y := New(n, out)
	for ni := 0; ni < n; ni++ {
		xRow := x.data[ni*in : (ni+1)*in]
		for oi := 0; oi < out; oi++ {
			wRow := w.data[oi*in : (oi+1)*in]
			acc := 0.0
			for k, xv := range xRow {
				acc += xv * wRow[k]
			}
			if b != nil {
				acc += b.data[oi]
			}
			y.data[ni*out+oi] = acc
		}
	}
	return y
}

// FCForward sums every output in the reference's order (zero-initialised
// k-ordered dot, bias last), so it matches it bit for bit — over full
// blocks of four samples, the zero-padded rest, outputs off the 8-wide
// block, and nil bias.
func TestFCForwardBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, g := range []struct{ n, in, out int }{
		{1, 1, 1}, {3, 7, 4}, {2, 33, 5}, {4, 64, 10}, {5, 129, 3}, {2, 16, 8},
	} {
		x := New(g.n, g.in).RandN(rng, 1)
		w := New(g.out, g.in).RandN(rng, 1)
		for _, b := range []*Tensor{nil, New(g.out).RandN(rng, 1)} {
			got, want := FCForward(x, w, b), refFCForward(x, w, b)
			for i, v := range want.data {
				if got.data[i] != v {
					t.Fatalf("n=%d in=%d out=%d bias=%v: y[%d] = %.17g, reference %.17g", g.n, g.in, g.out, b != nil, i, got.data[i], v)
				}
			}
		}
	}
}

func TestFCBackwardShapeMismatchPanics(t *testing.T) {
	x := New(2, 6)
	dy := New(2, 3)
	for name, wShape := range map[string][]int{
		"inner too small": {3, 5},
		"inner too large": {3, 7},
	} {
		w := New(wShape...)
		t.Run(name, func(t *testing.T) {
			defer expectPanic(t, "weight inner mismatch")
			FCBackward(dy, x, w, x.Shape())
		})
	}
}

func TestFCBackwardFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := New(3, 5).RandN(rng, 1)
	w := New(4, 5).RandN(rng, 1)
	y := FCForward(x, w, nil)
	dy := y.Clone()
	dx, dw, db := FCBackward(dy, x, w, x.Shape())

	const eps = 1e-5
	check := func(name string, param, grad *Tensor) {
		t.Helper()
		for trial := 0; trial < 15; trial++ {
			i := rng.Intn(param.Len())
			orig := param.Data()[i]
			param.Data()[i] = orig + eps
			lp := halfSq(FCForward(x, w, nil))
			param.Data()[i] = orig - eps
			lm := halfSq(FCForward(x, w, nil))
			param.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if d := math.Abs(num - grad.Data()[i]); d > 1e-4 {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", name, i, grad.Data()[i], num)
			}
		}
	}
	check("dx", x, dx)
	check("dw", w, dw)
	// db should be all zeros' gradient — with nil bias the loss does not
	// depend on b, but FCBackward still reduces dy per output:
	sum := 0.0
	for _, v := range db.Data() {
		sum += v
	}
	dySum := dy.Sum()
	if math.Abs(sum-dySum) > 1e-9 {
		t.Fatalf("db total %g != dy total %g", sum, dySum)
	}
}

func TestFCAsConvEquivalence(t *testing.T) {
	// A fully-connected layer equals a convolution whose kernel covers
	// the whole input (paper §2.2). Verify on real numbers.
	rng := rand.New(rand.NewSource(30))
	n, c, h, wd, out := 2, 3, 4, 4, 5
	x := New(n, c, h, wd).RandN(rng, 1)
	w := New(out, c, h, wd).RandN(rng, 1)
	b := New(out).RandN(rng, 1)

	conv := ConvForward(x, w, b, UniformConv(2, 1, 0)) // out spatial = 1×1
	fc := FCForward(x.Reshape(n, c*h*wd), w.Reshape(out, c*h*wd), b)
	if !conv.Reshape(n, out).AllClose(fc, 1e-9) {
		t.Fatalf("FC != whole-input conv: max diff %g", conv.Reshape(n, out).MaxDiff(fc))
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	// Equal logits => loss = ln(K), gradient rows sum to 0.
	k := 4
	logits := New(2, k)
	loss, d := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(float64(k))) > 1e-9 {
		t.Fatalf("uniform loss = %v, want ln(%d)=%v", loss, k, math.Log(float64(k)))
	}
	for ni := 0; ni < 2; ni++ {
		row := 0.0
		for ki := 0; ki < k; ki++ {
			row += d.At(ni, ki)
		}
		if math.Abs(row) > 1e-9 {
			t.Fatalf("gradient row %d sums to %v", ni, row)
		}
	}
}

func TestSoftmaxCrossEntropyFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	logits := New(3, 5).RandN(rng, 1)
	labels := []int{1, 4, 0}
	_, d := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-6
	for trial := 0; trial < 15; trial++ {
		i := rng.Intn(logits.Len())
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if diff := math.Abs(num - d.Data()[i]); diff > 1e-5 {
			t.Fatalf("dlogits[%d]: analytic %g vs numeric %g", i, d.Data()[i], num)
		}
	}
}

func TestSGDStep(t *testing.T) {
	w := FromSlice([]float64{1, 2}, 2)
	g := FromSlice([]float64{10, -10}, 2)
	SGDStep(w, g, 0.1)
	if w.At(0) != 0 || w.At(1) != 3 {
		t.Fatalf("sgd result %v", w)
	}
}

func TestPoolMaxKnown(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, arg := PoolForward(x, UniformPool(MaxPool, 2, 2, 2, 0))
	want := []float64{6, 8, 14, 16}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("maxpool[%d] = %v, want %v", i, y.Data()[i], v)
		}
	}
	dy := FromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	dx := PoolBackward(dy, x.Shape(), UniformPool(MaxPool, 2, 2, 2, 0), arg)
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 0, 0) != 0 {
		t.Fatalf("maxpool bwd wrong: %v", dx)
	}
}

func TestPoolAvgKnown(t *testing.T) {
	x := FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	y, _ := PoolForward(x, UniformPool(AvgPool, 2, 2, 2, 0))
	if y.At(0, 0, 0, 0) != 2.5 {
		t.Fatalf("avgpool = %v, want 2.5", y.At(0, 0, 0, 0))
	}
	dy := FromSlice([]float64{4}, 1, 1, 1, 1)
	dx := PoolBackward(dy, x.Shape(), UniformPool(AvgPool, 2, 2, 2, 0), nil)
	for _, v := range dx.Data() {
		if v != 1 {
			t.Fatalf("avgpool bwd should spread evenly, got %v", dx)
		}
	}
}

func TestPoolGradientSumConservation(t *testing.T) {
	// For stride == window (non-overlapping, no padding), both pool
	// kinds conserve the total gradient mass.
	rng := rand.New(rand.NewSource(32))
	x := New(2, 3, 6, 6).RandN(rng, 1)
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		spec := UniformPool(kind, 2, 2, 2, 0)
		_, arg := PoolForward(x, spec)
		dy := New(2, 3, 3, 3).RandN(rng, 1)
		dx := PoolBackward(dy, x.Shape(), spec, arg)
		if d := math.Abs(dx.Sum() - dy.Sum()); d > 1e-9 {
			t.Fatalf("kind %v: gradient mass not conserved (diff %g)", kind, d)
		}
	}
}

func TestPool3D(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := New(1, 2, 4, 4, 4).RandN(rng, 1)
	y, _ := PoolForward(x, UniformPool(MaxPool, 3, 2, 2, 0))
	if !EqualShapes(y.Shape(), []int{1, 2, 2, 2, 2}) {
		t.Fatalf("3D pool shape %v", y.Shape())
	}
}

func TestBNForwardNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x := New(4, 3, 5, 5).RandN(rng, 3)
	gamma := New(3)
	gamma.Fill(1)
	beta := New(3)
	y, _ := BNForward(x, gamma, beta, 1e-5)
	// each channel of y must have ~zero mean and ~unit variance
	n, c, vol := 4, 3, 25
	for ci := 0; ci < c; ci++ {
		mean, ssq := 0.0, 0.0
		for ni := 0; ni < n; ni++ {
			for i := 0; i < vol; i++ {
				v := y.Data()[(ni*c+ci)*vol+i]
				mean += v
				ssq += v * v
			}
		}
		cnt := float64(n * vol)
		mean /= cnt
		variance := ssq/cnt - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("bn channel %d mean %g", ci, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("bn channel %d variance %g", ci, variance)
		}
	}
}

func TestBNBackwardFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	x := New(2, 2, 3, 3).RandN(rng, 1)
	gamma := New(2).RandU(rng, 0.5, 1.5)
	beta := New(2).RandN(rng, 0.5)
	eps := 1e-5

	loss := func() float64 {
		y, _ := BNForward(x, gamma, beta, eps)
		return halfSq(y)
	}
	y, st := BNForward(x, gamma, beta, eps)
	dx, dgamma, dbeta := BNBackward(y.Clone(), gamma, st)

	const h = 1e-5
	checkOne := func(name string, param, grad *Tensor, i int, tol float64) {
		t.Helper()
		orig := param.Data()[i]
		param.Data()[i] = orig + h
		lp := loss()
		param.Data()[i] = orig - h
		lm := loss()
		param.Data()[i] = orig
		num := (lp - lm) / (2 * h)
		if d := math.Abs(num - grad.Data()[i]); d > tol {
			t.Fatalf("%s[%d]: analytic %g vs numeric %g", name, i, grad.Data()[i], num)
		}
	}
	for trial := 0; trial < 10; trial++ {
		checkOne("dx", x, dx, rng.Intn(x.Len()), 1e-3)
	}
	for i := 0; i < 2; i++ {
		checkOne("dgamma", gamma, dgamma, i, 1e-4)
		checkOne("dbeta", beta, dbeta, i, 1e-4)
	}
}

// twinSync is the BNSync of a PE whose one peer holds the same shard,
// so every sum doubles. It logs its calls and returns each tensor sum in
// a fresh tensor, as the tree allreduce does on a non-root PE.
type twinSync struct{ calls []string }

func (s *twinSync) AllReduceSum(t *Tensor) *Tensor {
	s.calls = append(s.calls, fmt.Sprintf("sum[%d]", t.Len()))
	out := t.Clone()
	out.Scale(2)
	return out
}

func (s *twinSync) AllReduceScalar(v float64) float64 {
	s.calls = append(s.calls, "scalar")
	return 2 * v
}

// Synchronized BN over two PEs that hold the same shard is local BN
// over the shard twice, and it sums what it documents across the PEs:
// forward the channel sums, the count and the centered squares, and
// backward the two gradient sums, into the caller's buffers.
func TestBNSyncIsLocalBNOverTheWholeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	x := New(3, 2, 4, 3).RandN(rng, 1)
	gamma, beta := New(2).RandU(rng, 0.5, 1.5), New(2).RandN(rng, 0.5)
	dy := New(x.Shape()...).RandN(rng, 1)
	yWhole, stWhole := BNForward(Concat(0, x, x), gamma, beta, 1e-5)
	dxWhole, dgWhole, dbWhole := BNBackward(Concat(0, dy, dy), gamma, stWhole)

	sync := new(twinSync)
	y, st := nanFilled(x.Shape()...), &BNState{Mean: nanFilled(2), Var: nanFilled(2), XHat: nanFilled(x.Shape()...)}
	BNForwardInto(y, st, x, gamma, beta, 1e-5, sync)
	dx, dgamma, dbeta := nanFilled(x.Shape()...), nanFilled(2), nanFilled(2)
	BNBackwardReduceInto(dgamma, dbeta, dy, st, sync)
	BNBackwardApplyInto(dx, dy, gamma, st, dgamma, dbeta)

	if want := "[sum[2] scalar sum[2] sum[2] sum[2]]"; fmt.Sprint(sync.calls) != want {
		t.Fatalf("collectives %v, want %s", sync.calls, want)
	}
	if st.Count != stWhole.Count {
		t.Fatalf("count %d, whole batch %d", st.Count, stWhole.Count)
	}
	for _, c := range []struct {
		name      string
		got, want *Tensor
	}{
		{"mean", st.Mean, stWhole.Mean}, {"var", st.Var, stWhole.Var},
		{"y", y, yWhole.Narrow(0, 0, 3)}, {"dx", dx, dxWhole.Narrow(0, 0, 3)},
		{"dgamma", dgamma, dgWhole}, {"dbeta", dbeta, dbWhole},
	} {
		if d := c.got.MaxDiff(c.want); !(d <= 1e-12) {
			t.Fatalf("%s differs from local BN over the whole batch by %g", c.name, d)
		}
	}
}
