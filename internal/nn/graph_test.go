package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"paradl/internal/tensor"
)

// residualModel builds a small smooth (conv/FC only, so finite
// differences are well-behaved) projection-shortcut model:
//
//	conv0 ── conv1(s2) ──(+)── fc
//	   └── shortcut(s2) ──┘
func residualModel(t *testing.T) *Model {
	t.Helper()
	b := NewBuilder("residual-test", 2, []int{6, 6})
	b.Conv(4, 3, 1, 1)
	c, dims := b.Snapshot()
	b.Conv(4, 3, 2, 1)
	b.ShortcutConv(c, dims, 4, 1, 2, 0)
	b.FC(3)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// inputTapModel branches from the network input itself (Tap = -1).
func inputTapModel(t *testing.T) *Model {
	t.Helper()
	b := NewBuilder("input-tap", 2, []int{5, 5})
	c, dims := b.Snapshot() // before any layer: the network input
	b.Conv(2, 3, 1, 1)
	b.ShortcutConv(c, dims, 2, 1, 1, 0)
	b.FC(3)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompileGraphResolvesResidual(t *testing.T) {
	m := residualModel(t)
	g, err := CompileGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasBranches() {
		t.Fatal("residual model must report branches")
	}
	if g.Src(2) != 0 || g.MergeInto(2) != 1 {
		t.Fatalf("branch routing src=%d merge=%d, want 0 and 1", g.Src(2), g.MergeInto(2))
	}
	if !g.Tapped(0) || g.Tapped(1) {
		t.Fatalf("tapped flags wrong: %v %v", g.Tapped(0), g.Tapped(1))
	}
	// Chain models are the degenerate DAG.
	chain, err := CompileGraph(&Model{Name: "chain", InputChannels: 2, InputDims: []int{4, 4}, Layers: []Layer{
		{Kind: ReLU, Name: "r1", C: 2, F: 2, In: []int{4, 4}, Out: []int{4, 4}},
		{Kind: ReLU, Name: "r2", C: 2, F: 2, In: []int{4, 4}, Out: []int{4, 4}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if chain.HasBranches() || chain.Src(1) != 0 || chain.Src(0) != -1 {
		t.Fatal("chain model must compile to the degenerate DAG")
	}
}

func TestCompileGraphRejectsBadStructures(t *testing.T) {
	m := residualModel(t)
	m.Layers[2].Tap = 5 // out of range
	if _, err := CompileGraph(m); err == nil {
		t.Fatal("out-of-range tap must be rejected")
	}
	m = residualModel(t)
	m.Layers[2].Tap = 1 // geometry mismatch: layer 1 outputs 3×3, branch expects 6×6
	if _, err := CompileGraph(m); err == nil {
		t.Fatal("tap geometry mismatch must be rejected")
	}
	// A branch with no main-path output to merge into.
	bad := &Model{Name: "bad", InputChannels: 2, InputDims: []int{4, 4}, Layers: []Layer{
		{Kind: Conv, Name: "s", C: 2, F: 2, In: []int{4, 4}, Out: []int{4, 4},
			Kernel: []int{1, 1}, Stride: []int{1, 1}, Pad: []int{0, 0}, Branch: true, Tap: -1},
	}}
	if _, err := CompileGraph(bad); err == nil {
		t.Fatal("leading branch must be rejected")
	}
}

// TestTapIntoMergeTargetRejected: a branch tapping the very layer it
// merges into (no main-path layer between tap and shortcut) would make
// the saved tap state alias the in-place merge — the graph compiler
// and Build/Validate must both refuse the shape and steer the caller
// toward tapping a post-merge layer.
func TestTapIntoMergeTargetRejected(t *testing.T) {
	b := NewBuilder("self-merge", 2, []int{6, 6})
	b.Conv(4, 3, 1, 1)
	c, dims := b.Snapshot()
	b.ShortcutConv(c, dims, 4, 1, 1, 0) // tap == merge target: conv1
	b.FC(3)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "merge target") {
		t.Fatalf("zero-main-path residual must be rejected, got %v", err)
	}

	// Same shape with an intervening main-path layer is fine.
	ok := NewBuilder("post-merge-tap", 2, []int{6, 6})
	ok.Conv(4, 3, 1, 1)
	c, dims = ok.Snapshot()
	ok.Conv(4, 3, 1, 1)
	ok.ShortcutConv(c, dims, 4, 1, 1, 0)
	ok.ReLU()
	ok.FC(3)
	if _, err := ok.Build(); err != nil {
		t.Fatalf("tap with intervening main path must validate: %v", err)
	}
}

// TestSnapshotConsumedPerShortcut: ShortcutConv consumes its Snapshot,
// so a second same-geometry block that forgets to re-snapshot cannot
// silently reuse the first block's tap (a long-range shortcut the
// parity tests could never notice). Here the fallback inference lands
// on the adjacent main-path conv — a merge target — so Build fails
// loudly; snapshotting each block builds the intended taps.
func TestSnapshotConsumedPerShortcut(t *testing.T) {
	build := func(resnap bool) (*Model, error) {
		b := NewBuilder("two-blocks", 2, []int{6, 6})
		b.Conv(4, 3, 1, 1).ReLU()
		c, dims := b.Snapshot() // block 1 entry: relu1 (index 1)
		b.Conv(4, 3, 1, 1)
		b.ShortcutConv(c, dims, 4, 1, 1, 0)
		b.ReLU() // block 2 entry (index 4), same geometry as block 1's
		if resnap {
			c, dims = b.Snapshot()
		}
		b.Conv(4, 3, 1, 1)
		b.ShortcutConv(c, dims, 4, 1, 1, 0)
		b.ReLU()
		b.FC(3)
		return b.Build()
	}
	if _, err := build(false); err == nil {
		t.Fatal("forgotten Snapshot must not silently reuse the stale tap")
	}
	m, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	var taps []int
	for i := range m.Layers {
		if m.Layers[i].Branch {
			taps = append(taps, m.Layers[i].Tap)
		}
	}
	if len(taps) != 2 || taps[0] != 1 || taps[1] != 4 {
		t.Fatalf("taps = %v, want [1 4]", taps)
	}
}

func TestLegalCutAroundResidualBlock(t *testing.T) {
	m := residualModel(t)
	g, err := CompileGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	// Block spans layers 1..2 (tap 0): a cut at 1 is legal (the stage
	// input IS the tap), cuts at 2 sever the branch from its merge
	// target, a cut at 3 is past the block.
	if !g.LegalCut(1) || !g.LegalCut(3) {
		t.Fatal("cuts at the block boundary must be legal")
	}
	if g.LegalCut(2) {
		t.Fatal("a cut inside the residual block must be illegal")
	}
	err = g.CutViolation(2)
	if err == nil || !strings.Contains(err.Error(), "conv3_shortcut") {
		t.Fatalf("violation must name the offending branch layer, got %v", err)
	}
}

// TestChainDAGBitIdentity: for chain models the graph walk must execute
// the very same operation sequence as the historical layer-by-layer
// loop — losses and gradients bit for bit.
func TestChainDAGBitIdentity(t *testing.T) {
	m := smallModel(t) // the chain model of nn_test.go (conv/bn/pool/fc)
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork(m, rng)
	x := tensor.New(3, 3, 8, 8).RandN(rng, 1)
	labels := []int{0, 4, 9}

	// Manual chain loop (the pre-DAG execution path), on a replica of
	// its own: gradients are views of a network's buffers, overwritten
	// by its next backward.
	chain := NewNetwork(m, rand.New(rand.NewSource(9)))
	states := make([]*LayerState, m.G())
	cur := x
	for l := 0; l < m.G(); l++ {
		cur, states[l] = chain.ForwardLayer(l, cur)
	}
	wantLoss, dLogits := tensor.SoftmaxCrossEntropy(cur, labels)
	wantGrads := make([]Grads, m.G())
	dcur := dLogits.Clone()
	for l := m.G() - 1; l >= 0; l-- {
		dcur, wantGrads[l] = chain.BackwardLayer(l, dcur, states[l])
	}

	logits, st2 := net.Forward(x)
	gotLoss, dl2 := tensor.SoftmaxCrossEntropy(logits, labels)
	dx, gotGrads := net.Backward(dl2, st2)
	if gotLoss != wantLoss {
		t.Fatalf("loss %v != chain loss %v", gotLoss, wantLoss)
	}
	if dx.MaxDiff(dcur) != 0 {
		t.Fatal("input gradient differs from the chain loop")
	}
	for l := range wantGrads {
		for name, pair := range map[string][2]*tensor.Tensor{
			"W": {gotGrads[l].W, wantGrads[l].W}, "B": {gotGrads[l].B, wantGrads[l].B},
			"Gamma": {gotGrads[l].Gamma, wantGrads[l].Gamma}, "Beta": {gotGrads[l].Beta, wantGrads[l].Beta},
		} {
			got, want := pair[0], pair[1]
			if (got == nil) != (want == nil) {
				t.Fatalf("layer %d %s: nil mismatch", l, name)
			}
			if got != nil && got.MaxDiff(want) != 0 {
				t.Fatalf("layer %d %s gradient differs from the chain loop", l, name)
			}
		}
	}
}

// TestResidualForwardMatchesManual: the DAG forward must equal the
// hand-composed residual computation a + shortcut(z) on the same
// parameters.
func TestResidualForwardMatchesManual(t *testing.T) {
	m := residualModel(t)
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(m, rng)
	x := tensor.New(2, 2, 6, 6).RandN(rng, 1)

	logits, _ := net.Forward(x)

	cs := func(l int) tensor.ConvSpec {
		return tensor.ConvSpec{Stride: m.Layers[l].Stride, Pad: m.Layers[l].Pad}
	}
	z := tensor.ConvForward(x, net.Params[0].W, net.Params[0].B, cs(0))
	a := tensor.ConvForward(z, net.Params[1].W, net.Params[1].B, cs(1))
	s := tensor.ConvForward(z, net.Params[2].W, net.Params[2].B, cs(2))
	a.Add(s)
	flat := a.Reshape(a.Dim(0), a.Len()/a.Dim(0))
	want := tensor.FCForward(flat, net.Params[3].W, net.Params[3].B)
	if logits.MaxDiff(want) > 1e-12 {
		t.Fatalf("DAG forward differs from manual residual composition by %g", logits.MaxDiff(want))
	}
}

// lossOf runs one forward pass and returns the softmax loss — the
// scalar field the finite-difference checks probe.
func lossOf(net *Network, x *tensor.Tensor, labels []int) float64 {
	logits, _ := net.Forward(x)
	loss, _ := tensor.SoftmaxCrossEntropy(logits, labels)
	return loss
}

// fdCheck verifies dLoss/dθ for a handful of elements of tensor w whose
// analytic gradient is g, via central differences on the full forward
// pass.
func fdCheck(t *testing.T, net *Network, x *tensor.Tensor, labels []int, w, g *tensor.Tensor, what string) {
	t.Helper()
	const eps = 1e-6
	data := w.Data()
	stride := len(data)/5 + 1
	for i := 0; i < len(data); i += stride {
		orig := data[i]
		data[i] = orig + eps
		up := lossOf(net, x, labels)
		data[i] = orig - eps
		down := lossOf(net, x, labels)
		data[i] = orig
		numeric := (up - down) / (2 * eps)
		analytic := g.Data()[i]
		if diff := numeric - analytic; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("%s[%d]: analytic %.8g vs numeric %.8g", what, i, analytic, numeric)
		}
	}
}

// TestResidualGradientsFiniteDifference: the merge join must fan the
// output gradient into both branches and the shortcut's input gradient
// must accumulate at the tap — checked against central differences on
// the projection shortcut, the tapped conv (which sums both paths'
// contributions), the main-path conv, and the network input.
func TestResidualGradientsFiniteDifference(t *testing.T) {
	m := residualModel(t)
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork(m, rng)
	x := tensor.New(2, 2, 6, 6).RandN(rng, 1)
	labels := []int{1, 2}

	logits, states := net.Forward(x)
	_, dLogits := tensor.SoftmaxCrossEntropy(logits, labels)
	dx, grads := net.Backward(dLogits, states)

	fdCheck(t, net, x, labels, net.Params[2].W, grads[2].W, "shortcut W")
	fdCheck(t, net, x, labels, net.Params[2].B, grads[2].B, "shortcut B")
	fdCheck(t, net, x, labels, net.Params[0].W, grads[0].W, "tapped conv W")
	fdCheck(t, net, x, labels, net.Params[1].W, grads[1].W, "main conv W")
	fdCheck(t, net, x, labels, x, dx, "input")
}

// TestInputTapGradientsFiniteDifference: a branch tapping the network
// input itself must contribute to the returned input gradient.
func TestInputTapGradientsFiniteDifference(t *testing.T) {
	m := inputTapModel(t)
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(m, rng)
	x := tensor.New(2, 2, 5, 5).RandN(rng, 1)
	labels := []int{0, 2}

	logits, states := net.Forward(x)
	_, dLogits := tensor.SoftmaxCrossEntropy(logits, labels)
	dx, grads := net.Backward(dLogits, states)

	fdCheck(t, net, x, labels, net.Params[1].W, grads[1].W, "shortcut W")
	fdCheck(t, net, x, labels, x, dx, "input")
}

// TestResidualTrainStepReducesLoss: end-to-end SGD through the DAG.
func TestResidualTrainStepReducesLoss(t *testing.T) {
	m := residualModel(t)
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork(m, rng)
	x := tensor.New(4, 2, 6, 6).RandN(rng, 1)
	labels := []int{0, 1, 2, 0}
	first := net.TrainStep(x, labels, 0.05)
	var last float64
	for i := 0; i < 30; i++ {
		last = net.TrainStep(x, labels, 0.05)
	}
	if last >= first {
		t.Fatalf("residual training did not reduce loss: first %g last %g", first, last)
	}
}

// TestBackwardWritesNetworkOwnedBuffers: Backward returns views of the
// network's own gradient buffers — the same tensors call after call —
// and overwrites every element of them: a second backward on a new batch,
// into buffers poisoned with NaN in between, equals a fresh replica's
// first backward on that batch.
func TestBackwardWritesNetworkOwnedBuffers(t *testing.T) {
	m := smallModel(t)
	rng := rand.New(rand.NewSource(12))
	net, fresh := NewNetwork(m, rand.New(rand.NewSource(13))), NewNetwork(m, rand.New(rand.NewSource(13)))
	backward := func(n *Network, x *tensor.Tensor, labels []int) []Grads {
		logits, states := n.Forward(x)
		_, d := tensor.SoftmaxCrossEntropy(logits, labels)
		_, grads := n.Backward(d, states)
		return grads
	}
	first := backward(net, tensor.New(3, 3, 8, 8).RandN(rng, 1), []int{1, 2, 3})
	for l := range first {
		for _, g := range []*tensor.Tensor{first[l].W, first[l].B, first[l].Gamma, first[l].Beta} {
			if g != nil {
				g.Fill(math.NaN())
			}
		}
	}
	x, labels := tensor.New(2, 3, 8, 8).RandN(rng, 1), []int{7, 0}
	second, want := backward(net, x, labels), backward(fresh, x, labels)
	for l := range want {
		got := [4]*tensor.Tensor{second[l].W, second[l].B, second[l].Gamma, second[l].Beta}
		prev := [4]*tensor.Tensor{first[l].W, first[l].B, first[l].Gamma, first[l].Beta}
		for f, w := range [4]*tensor.Tensor{want[l].W, want[l].B, want[l].Gamma, want[l].Beta} {
			if (got[f] == nil) != (w == nil) || got[f] != prev[f] {
				t.Fatalf("layer %d field %d: the second backward did not return the layer's own buffer", l, f)
			}
			if w != nil && !got[f].AllClose(w, 0) {
				t.Fatalf("layer %d field %d: reused buffer differs from a fresh replica's gradient", l, f)
			}
		}
	}
}
