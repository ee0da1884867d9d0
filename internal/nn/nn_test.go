package nn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paradl/internal/tensor"
)

func smallModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewBuilder("small", 3, []int{8, 8}).
		Conv(4, 3, 1, 1).BatchNorm().ReLU().
		Pool(MaxPool, 2, 2, 0).
		Conv(8, 3, 1, 1).ReLU().
		Pool(AvgPool, 2, 2, 0).
		FC(10).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuilderShapeInference(t *testing.T) {
	m := smallModel(t)
	if m.G() != 8 {
		t.Fatalf("G = %d, want 8", m.G())
	}
	conv1 := m.Layers[0]
	if conv1.InSize() != 3*8*8 || conv1.OutSize() != 4*8*8 {
		t.Fatalf("conv1 sizes in=%d out=%d", conv1.InSize(), conv1.OutSize())
	}
	fc := m.Layers[7]
	if fc.Kind != FC || fc.InSize() != 8*2*2 || fc.OutSize() != 10 {
		t.Fatalf("fc geometry wrong: %+v", fc)
	}
	if m.Classes != 10 {
		t.Fatalf("classes %d", m.Classes)
	}
}

func TestLayerSizes(t *testing.T) {
	m := smallModel(t)
	conv1 := m.Layers[0]
	if w := conv1.WeightSize(); w != 3*4*9 {
		t.Fatalf("conv weight size %d", w)
	}
	if b := conv1.BiasSize(); b != 4 {
		t.Fatalf("conv bias size %d", b)
	}
	bn := m.Layers[1]
	if bn.WeightSize() != 8 || bn.BiasSize() != 0 {
		t.Fatalf("bn sizes w=%d b=%d", bn.WeightSize(), bn.BiasSize())
	}
	relu := m.Layers[2]
	if relu.WeightSize() != 0 {
		t.Fatalf("relu weight size %d", relu.WeightSize())
	}
	fc := m.Layers[7]
	if fc.WeightSize() != 8*10*2*2 {
		t.Fatalf("fc weight size %d", fc.WeightSize())
	}
}

func TestLayerFLOPs(t *testing.T) {
	m := smallModel(t)
	conv1 := m.Layers[0]
	// 2 * |y| * C * K² = 2 * 4*64 * 3*9
	if f := conv1.FwdFLOPs(); f != 2*4*64*3*9 {
		t.Fatalf("conv fwd flops %d", f)
	}
	if conv1.BwdFLOPs() != 2*conv1.FwdFLOPs() {
		t.Fatal("conv bwd flops should be 2× fwd")
	}
	if conv1.WUFLOPs() != 2*(conv1.WeightSize()+conv1.BiasSize()) {
		t.Fatal("WU flops mismatch")
	}
}

func TestHaloSize(t *testing.T) {
	m := smallModel(t)
	conv1 := m.Layers[0] // 3×3 kernel stride 1 on 3×8×8
	// K/2 = 1 row of C×W = 3×8 elements
	if h := conv1.HaloSize(0, 2); h != 24 {
		t.Fatalf("halo = %d, want 24", h)
	}
	if h := conv1.HaloSize(0, 1); h != 0 {
		t.Fatal("no halo for p=1")
	}
	relu := m.Layers[2]
	if relu.HaloSize(0, 4) != 0 {
		t.Fatal("relu needs no halo")
	}
	pool := m.Layers[3] // 2×2 window stride 2: stride consumes window
	if pool.HaloSize(0, 2) != 0 {
		t.Fatal("non-overlapping pool needs no halo")
	}
}

func TestModelAggregates(t *testing.T) {
	m := smallModel(t)
	var wantParams int64
	for i := range m.Layers {
		wantParams += m.Layers[i].WeightSize() + m.Layers[i].BiasSize()
	}
	if m.Params() != wantParams {
		t.Fatalf("Params() %d != %d", m.Params(), wantParams)
	}
	if m.TotalWeights() >= m.Params() {
		t.Fatal("TotalWeights must exclude biases")
	}
	if m.MinFilters() != 4 {
		t.Fatalf("MinFilters %d, want 4", m.MinFilters())
	}
	// channel limit skips the first weighted layer (C=3)
	if m.MinChannels() != 4 {
		t.Fatalf("MinChannels %d, want 4", m.MinChannels())
	}
	// smallest spatially parallelizable input map is the 4×4 feeding the
	// second conv/pool stage; FC layers are excluded by definition
	if m.MinSpatial() != 16 {
		t.Fatalf("MinSpatial %d, want 16", m.MinSpatial())
	}
}

func TestValidateCatchesDiscontinuity(t *testing.T) {
	m := smallModel(t)
	m.Layers[4].C = 7 // break the chain
	if err := m.Validate(); err == nil {
		t.Fatal("Validate should reject broken channel chain")
	}
}

func TestValidateCatchesBadSpatial(t *testing.T) {
	m := smallModel(t)
	m.Layers[0].Out[0] = 5
	if err := m.Validate(); err == nil {
		t.Fatal("Validate should reject wrong conv output extent")
	}
}

func TestBranchLayerValidation(t *testing.T) {
	b := NewBuilder("branchy", 3, []int{8, 8})
	b.Conv(4, 3, 1, 1)
	c, dims := b.Snapshot()
	_ = c
	b.Conv(8, 3, 2, 1)
	b.ShortcutConv(4, dims, 8, 1, 2, 0)
	b.ReLU()
	b.FC(2)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("branch model should validate: %v", err)
	}
	// the shortcut conv contributes weights
	var shortcut *Layer
	for i := range m.Layers {
		if m.Layers[i].Branch {
			shortcut = &m.Layers[i]
		}
	}
	if shortcut == nil {
		t.Fatal("no branch layer recorded")
	}
	if shortcut.WeightSize() != 4*8 {
		t.Fatalf("shortcut weight size %d", shortcut.WeightSize())
	}
}

func TestBranchMergeMismatchRejected(t *testing.T) {
	b := NewBuilder("branchy", 3, []int{8, 8})
	b.Conv(4, 3, 1, 1)
	_, dims := b.Snapshot()
	b.Conv(8, 3, 2, 1)
	b.ShortcutConv(4, dims, 16, 1, 2, 0) // F=16 cannot merge into F=8
	b.ReLU()
	if _, err := b.Build(); err == nil {
		t.Fatal("mismatched branch merge must be rejected")
	}
}

func TestNetworkForwardShapes(t *testing.T) {
	m := smallModel(t)
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(m, rng)
	x := tensor.New(2, 3, 8, 8).RandN(rng, 1)
	logits, states := net.Forward(x)
	if !tensor.EqualShapes(logits.Shape(), []int{2, 10}) {
		t.Fatalf("logits shape %v", logits.Shape())
	}
	if len(states) != m.G() {
		t.Fatalf("state count %d", len(states))
	}
}

func TestNetworkTrainStepReducesLoss(t *testing.T) {
	m := smallModel(t)
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(m, rng)
	x := tensor.New(4, 3, 8, 8).RandN(rng, 1)
	labels := []int{1, 3, 5, 7}
	first := net.TrainStep(x, labels, 0.05)
	var last float64
	for i := 0; i < 30; i++ {
		last = net.TrainStep(x, labels, 0.05)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %g last %g", first, last)
	}
}

func TestNetworkDeterministicInit(t *testing.T) {
	m := smallModel(t)
	a := NewNetwork(m, rand.New(rand.NewSource(77)))
	b := NewNetwork(m, rand.New(rand.NewSource(77)))
	for i := range a.Params {
		if a.Params[i].W != nil && !a.Params[i].W.AllClose(b.Params[i].W, 0) {
			t.Fatalf("layer %d weights differ across identical seeds", i)
		}
	}
}

func TestCloneParamsIndependent(t *testing.T) {
	m := smallModel(t)
	net := NewNetwork(m, rand.New(rand.NewSource(3)))
	snap := net.CloneParams()
	net.Params[0].W.Fill(0)
	if snap[0].W.MaxAbs() == 0 {
		t.Fatal("CloneParams must deep-copy")
	}
}

// NewNetworkFrom copies a draw bit for bit into buffers of its own, and
// rejects parameters that do not fit the model.
func TestNewNetworkFrom(t *testing.T) {
	m := smallModel(t)
	src := NewNetwork(m, rand.New(rand.NewSource(5))).Params
	net, err := NewNetworkFrom(m, src)
	if err != nil {
		t.Fatal(err)
	}
	for l := range src {
		for f, pair := range [4][2]*tensor.Tensor{{src[l].W, net.Params[l].W}, {src[l].B, net.Params[l].B},
			{src[l].Gamma, net.Params[l].Gamma}, {src[l].Beta, net.Params[l].Beta}} {
			if (pair[0] == nil) != (pair[1] == nil) {
				t.Fatalf("layer %d field %d: presence differs", l, f)
			}
			if pair[0] != nil && (!pair[0].AllClose(pair[1], 0) || &pair[0].Data()[0] == &pair[1].Data()[0]) {
				t.Fatalf("layer %d field %d: not an equal private copy", l, f)
			}
		}
	}
	if _, err := NewNetworkFrom(m, src[1:]); err == nil {
		t.Fatal("too few layers must be rejected")
	}
	bad := append([]Params(nil), src...)
	bad[0].W = tensor.New(1, 2, 3)
	if _, err := NewNetworkFrom(m, bad); err == nil {
		t.Fatal("a misshapen weight must be rejected")
	}
	bad[0].W, bad[1].Gamma = src[0].W, nil
	if _, err := NewNetworkFrom(m, bad); err == nil {
		t.Fatal("a missing batch-norm scale must be rejected")
	}
}

// Property: InSize/OutSize/WeightSize are non-negative and consistent
// with FLOP counts for random conv geometries.
func TestConvLayerAccountingProperty(t *testing.T) {
	f := func(cRaw, fRaw, hRaw, kRaw uint8) bool {
		c := int(cRaw%8) + 1
		fl := int(fRaw%8) + 1
		h := int(hRaw%16) + 3
		k := int(kRaw%3)*2 + 1 // 1, 3, 5
		if k > h {
			return true
		}
		b := NewBuilder("prop", c, []int{h, h})
		b.Conv(fl, k, 1, k/2)
		m, err := b.Build()
		if err != nil {
			return false
		}
		l := m.Layers[0]
		return l.InSize() == int64(c*h*h) &&
			l.OutSize() == int64(fl*h*h) &&
			l.WeightSize() == int64(c*fl*k*k) &&
			l.FwdFLOPs() == 2*l.OutSize()*int64(c*k*k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayerKindString(t *testing.T) {
	names := map[LayerKind]string{Conv: "conv", Pool: "pool", FC: "fc", ReLU: "relu", BatchNorm: "bn"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("String(%d) = %q", int(k), k.String())
		}
	}
}
