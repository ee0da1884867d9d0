package nn

import (
	"fmt"
	"math/rand"
	"slices"

	"paradl/internal/tensor"
)

// Params holds the learnable tensors of one layer. Nil fields mean the
// layer has no such parameter.
type Params struct {
	W, B        *tensor.Tensor // conv/fc weight and bias
	Gamma, Beta *tensor.Tensor // batch-norm scale and shift
}

// Grads mirrors Params for gradients.
type Grads struct {
	W, B        *tensor.Tensor
	Gamma, Beta *tensor.Tensor
}

// Network is an executable instantiation of a Model: specs plus real
// parameter tensors. Forward/Backward walk the compiled execution
// graph layer by layer — a strict chain for chain models, with branch
// taps and additive merges for residual models — so parallel
// strategies can interleave communication between layers.
type Network struct {
	Model  *Model
	Params []Params
	graph  *Graph
	grads  []Grads       // per-layer gradient buffers, see GradBuffers
	frame  []*LayerState // per-layer activation buffers, see Forward
}

// NewNetwork allocates parameters for every layer, initialized from rng
// with a He-style scale. Deterministic given the seed, so two PEs can
// build identical replicas. It panics on models whose layer list does
// not compile to an executable graph (see CompileGraph); callers that
// must report this as an error compile first.
func NewNetwork(m *Model, rng *rand.Rand) *Network {
	g, err := CompileGraph(m)
	if err != nil {
		panic(err)
	}
	net := newNetwork(m, g)
	for i := range m.Layers {
		l, p := &m.Layers[i], &net.Params[i]
		shapes := paramShapes(l)
		switch l.Kind {
		case Conv, FC:
			p.W = tensor.New(shapes[0]...).RandN(rng, 1.0/(1.0+float64(l.InSize())/64))
			p.B = tensor.New(shapes[1]...).RandN(rng, 0.01)
		case BatchNorm:
			p.Gamma = tensor.New(shapes[2]...)
			p.Gamma.Fill(1)
			p.Beta = tensor.New(shapes[3]...)
		}
	}
	return net
}

// NewNetworkFrom builds a Network of m whose parameters are copies of
// params, one entry per layer in the shapes NewNetwork gives them: a
// NewNetwork draw, or a checkpoint's canonical parameters. The copies
// are the network's own, so many networks may be built from one params
// at once and train without touching it. It returns an error when m
// does not compile (see CompileGraph) or params lacks, adds or
// misshapes a parameter.
func NewNetworkFrom(m *Model, params []Params) (*Network, error) {
	g, err := CompileGraph(m)
	if err != nil {
		return nil, err
	}
	if len(params) != len(m.Layers) {
		return nil, fmt.Errorf("nn: %d layers of parameters for model %q of %d layers", len(params), m.Name, len(m.Layers))
	}
	net := newNetwork(m, g)
	names := [4]string{"W", "B", "Gamma", "Beta"}
	for i := range m.Layers {
		want := paramShapes(&m.Layers[i])
		src, dst := &params[i], &net.Params[i]
		to := [4]**tensor.Tensor{&dst.W, &dst.B, &dst.Gamma, &dst.Beta}
		for f, t := range [4]*tensor.Tensor{src.W, src.B, src.Gamma, src.Beta} {
			switch {
			case (t == nil) != (want[f] == nil):
				return nil, fmt.Errorf("nn: layer %d parameter %s: given and model disagree on its presence", i, names[f])
			case t == nil:
				continue
			case !tensor.EqualShapes(t.Shape(), want[f]):
				return nil, fmt.Errorf("nn: layer %d %s has shape %v, model wants %v", i, names[f], t.Shape(), want[f])
			}
			// slices.Clone copies without first zeroing the new array.
			*to[f] = tensor.FromSlice(slices.Clone(t.Data()), want[f]...)
		}
	}
	return net, nil
}

// newNetwork is a Network of m, compiled to g, with no parameters yet.
func newNetwork(m *Model, g *Graph) *Network {
	return &Network{Model: m, Params: make([]Params, len(m.Layers)), graph: g, grads: make([]Grads, len(m.Layers))}
}

// paramShapes returns the shapes of layer l's W, B, Gamma and Beta, nil
// where the layer has no such parameter.
func paramShapes(l *Layer) [4][]int {
	switch l.Kind {
	case Conv:
		return [4][]int{append([]int{l.F, l.C}, l.Kernel...), {l.F}}
	case FC:
		return [4][]int{{l.F, int(l.InSize())}, {l.F}}
	case BatchNorm:
		return [4][]int{2: {l.C}, 3: {l.C}}
	}
	return [4][]int{}
}

// LayerState carries forward-pass intermediates a layer's backward pass
// needs, and the buffers the layer writes.
type LayerState struct {
	X      *tensor.Tensor // layer input as seen by forward
	Argmax []int          // max-pool winners
	BN     *tensor.BNState
	// Pad is the padding a window layer (Conv, Pool) applies per spatial
	// axis; nil means the layer's own. The spatial engine of
	// internal/dist sets it to the layer's pads with the split axis
	// zeroed, because its halo block already carries that axis's border.
	Pad []int
	// Sync is the communicator a BatchNorm layer sums its statistics
	// and gradients over (synchronized BN); nil means local BN. The
	// engines of internal/dist set it on a BN layer whose batch is split
	// across PEs.
	Sync tensor.BNSync

	// The layer's output, its input gradient and its kernels'
	// scratch. A fresh state (ForwardLayer, BackwardLayer) has none, so
	// its kernels allocate them; a state kept from step to step — one of
	// the network's frame (Forward), or one an engine of internal/dist
	// keeps per layer (ForwardInto) — keeps them, and its kernels
	// rewrite them in place.
	y, dx   *tensor.Tensor
	scratch *tensor.Scratch
}

// pad returns the window padding layer spec applies in st.
func (st *LayerState) pad(spec *Layer) []int {
	if st.Pad != nil {
		return st.Pad
	}
	return spec.Pad
}

// ForwardLayer applies layer l to x and returns the activation plus the
// state needed by BackwardLayer, all in fresh buffers the caller owns.
// Every engine of internal/dist runs its layers in kept states instead
// (ForwardInto); the per-layer benchmarks call this form.
func (n *Network) ForwardLayer(l int, x *tensor.Tensor) (*tensor.Tensor, *LayerState) {
	st := &LayerState{}
	return n.forwardLayer(l, x, st, n.Params[l]), st
}

// ForwardInto applies layer l to x with the parameters p — the layer's
// own (n.Params[l]) or a shard of them, such as a filter shard's output
// channels — in st, a state the caller keeps from step to step (a zero
// LayerState to start). The output and what the backward needs live in
// st's buffers, which the layer's next ForwardInto rewrites in place,
// reallocating one only when its shape changes: what it returns is
// valid until then, like the frame's (see Forward).
func (n *Network) ForwardInto(l int, x *tensor.Tensor, st *LayerState, p Params) *tensor.Tensor {
	if st.scratch == nil {
		st.scratch = new(tensor.Scratch)
	}
	return n.forwardLayer(l, x, st, p)
}

// forwardLayer applies layer l to x with parameters p, writing its
// output and the state its backward needs into st: into st's buffers
// where they have the shapes this call needs, else into new ones it
// leaves there. Every layer forward runs here, over a fresh state
// (ForwardLayer) or a kept one (ForwardInto).
func (n *Network) forwardLayer(l int, x *tensor.Tensor, st *LayerState, p Params) *tensor.Tensor {
	spec := &n.Model.Layers[l]
	st.X = x
	pad := st.pad(spec)
	var dims [8]int
	switch spec.Kind {
	case Conv:
		st.y = reuse(st.y, windowOut(dims[:0], l, spec, pad, x, p.W.Dim(0)))
		tensor.ConvForwardInto(st.y, x, p.W, p.B, tensor.ConvSpec{Stride: spec.Stride, Pad: pad}, st.scratch)
	case Pool:
		st.y = reuse(st.y, windowOut(dims[:0], l, spec, pad, x, x.Dim(1)))
		if spec.PoolKind == tensor.MaxPool && len(st.Argmax) != st.y.Len() {
			st.Argmax = make([]int, st.y.Len())
		}
		tensor.PoolForwardInto(st.y, st.Argmax, x, tensor.PoolSpec{Kind: spec.PoolKind, Window: spec.Kernel, Stride: spec.Stride, Pad: pad}, st.scratch)
	case FC:
		nBatch := x.Dim(0)
		st.y = reuse(st.y, append(dims[:0], nBatch, p.W.Dim(0)))
		tensor.FCForwardInto(st.y, x.Reshape(nBatch, x.Len()/nBatch), p.W, p.B, st.scratch)
	case ReLU:
		st.y = reuseLike(st.y, x)
		tensor.ReLUForwardInto(st.y, x)
	case BatchNorm:
		st.y = reuseLike(st.y, x)
		if st.BN == nil || !st.BN.XHat.SameShape(x) {
			c := x.Dim(1)
			st.BN = &tensor.BNState{Mean: tensor.New(c), Var: tensor.New(c), XHat: tensor.New(x.Shape()...)}
		}
		tensor.BNForwardInto(st.y, st.BN, x, p.Gamma, p.Beta, 1e-5, st.Sync)
	default:
		panic(fmt.Sprintf("nn: cannot execute layer kind %v", spec.Kind))
	}
	return st.y
}

// windowOut appends to dims the output shape [N, f, out...] of window
// layer l (a convolution or a pooling) over x with padding pad.
func windowOut(dims []int, l int, spec *Layer, pad []int, x *tensor.Tensor, f int) []int {
	if x.Rank() != 2+len(spec.Kernel) {
		panic(fmt.Sprintf("nn: layer %d (%s) has a %d-d window, its input is %v", l, spec.Name, len(spec.Kernel), x.Shape()))
	}
	dims = append(dims, x.Dim(0), f)
	for d, k := range spec.Kernel {
		dims = append(dims, tensor.ConvOutSize(x.Dim(2+d), k, spec.Stride[d], pad[d]))
	}
	return dims
}

// reuse returns buf when it has the given shape, else a new tensor of
// that shape: a buffer is reallocated only when its shape changes.
func reuse(buf *tensor.Tensor, shape []int) *tensor.Tensor {
	if buf == nil || buf.Rank() != len(shape) {
		return tensor.New(shape...)
	}
	for i, d := range shape {
		if buf.Dim(i) != d {
			return tensor.New(shape...)
		}
	}
	return buf
}

// reuseLike is reuse with x's shape.
func reuseLike(buf, x *tensor.Tensor) *tensor.Tensor {
	if buf != nil && buf.SameShape(x) {
		return buf
	}
	return tensor.New(x.Shape()...)
}

// GradBuffers returns layer l's gradient buffers: one tensor per
// parameter the layer has, shaped like it. The network owns them — they
// are created on first use and live as long as the replica — and the
// layer's backward kernels overwrite them in place, so what they hold
// is valid until the layer's next backward.
func (n *Network) GradBuffers(l int) Grads {
	g, p := &n.grads[l], n.Params[l]
	like := func(buf **tensor.Tensor, param *tensor.Tensor) {
		if *buf == nil && param != nil {
			*buf = tensor.New(param.Shape()...)
		}
	}
	like(&g.W, p.W)
	like(&g.B, p.B)
	like(&g.Gamma, p.Gamma)
	like(&g.Beta, p.Beta)
	return *g
}

// BackwardLayer propagates dy through layer l given the forward state,
// returning the input gradient, in a fresh buffer, and the parameter
// gradients — views of the layer's GradBuffers, valid until its next
// backward.
func (n *Network) BackwardLayer(l int, dy *tensor.Tensor, st *LayerState) (*tensor.Tensor, Grads) {
	fresh := LayerState{X: st.X, Argmax: st.Argmax, BN: st.BN, Pad: st.Pad, Sync: st.Sync}
	g := n.GradBuffers(l)
	return n.backwardLayer(l, dy, &fresh, n.Params[l], g, true), g
}

// BackwardInto propagates dy through layer l given st, the state of its
// last ForwardInto with the same parameters p. It writes the parameter
// gradients into g — buffers shaped like p's fields: the layer's
// GradBuffers, or a shard's — and the input gradient into st's buffer,
// valid until the layer's next BackwardInto, or skips the input gradient
// and returns nil when inputGrad is false.
func (n *Network) BackwardInto(l int, dy *tensor.Tensor, st *LayerState, p Params, g Grads, inputGrad bool) *tensor.Tensor {
	if st.scratch == nil {
		st.scratch = new(tensor.Scratch)
	}
	return n.backwardLayer(l, dy, st, p, g, inputGrad)
}

// backwardLayer propagates dy through layer l with parameters p given
// the forward state st, writing the parameter gradients into g and the
// input gradient into st's buffer (see forwardLayer), or skipping it and
// returning nil when inputGrad is false. Every layer backward runs here.
func (n *Network) backwardLayer(l int, dy *tensor.Tensor, st *LayerState, p Params, g Grads, inputGrad bool) *tensor.Tensor {
	spec := &n.Model.Layers[l]
	var dx *tensor.Tensor
	if inputGrad {
		st.dx = reuseLike(st.dx, st.X)
		dx = st.dx
	}
	switch spec.Kind {
	case Conv:
		cs := tensor.ConvSpec{Stride: spec.Stride, Pad: st.pad(spec)}
		if dx != nil {
			tensor.ConvBackwardDataInto(dx, dy, p.W, cs, st.scratch)
		}
		tensor.ConvBackwardWeightInto(g.W, g.B, dy, st.X, cs, st.scratch)
	case Pool:
		if dx != nil {
			ps := tensor.PoolSpec{Kind: spec.PoolKind, Window: spec.Kernel, Stride: spec.Stride, Pad: st.pad(spec)}
			tensor.PoolBackwardInto(dx, dy, ps, st.Argmax, st.scratch)
		}
	case FC:
		nBatch := st.X.Dim(0)
		tensor.FCBackwardGradsInto(dx, g.W, g.B, dy, st.X.Reshape(nBatch, st.X.Len()/nBatch), p.W)
	case ReLU:
		if dx != nil {
			tensor.ReLUBackwardInto(dx, dy, st.X)
		}
	case BatchNorm:
		tensor.BNBackwardReduceInto(g.Gamma, g.Beta, dy, st.BN, st.Sync)
		if dx != nil {
			tensor.BNBackwardApplyInto(dx, dy, p.Gamma, st.BN, g.Gamma, g.Beta)
		}
	default:
		panic(fmt.Sprintf("nn: cannot execute layer kind %v", spec.Kind))
	}
	return dx
}

// Graph returns the network's compiled execution graph.
func (n *Network) Graph() *Graph { return n.graph }

// Forward runs the whole network through the execution graph — branch
// layers read their tap and merge additively — returning logits and
// per-layer states. For chain models the walk is bit-identical to the
// historical layer-by-layer loop.
//
// The network owns what Forward and Backward return. The activations,
// the states and the input gradient live in its frame, one LayerState
// per layer that every call rewrites in place, reallocating a buffer only
// when its shape changes; the layer kernels write every element, so
// nothing is zeroed first. Like the GradBuffers, they are valid until the
// network's next Forward: a caller that keeps one longer copies it, and
// nothing frame-owned may cross to another goroutine that outlives the
// step. ForwardInto and BackwardInto run a layer the same way in a
// state the caller keeps (every engine of internal/dist keeps one per
// layer, the pipeline one per microbatch and stage layer); ForwardLayer
// and BackwardLayer return fresh buffers instead.
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, []*LayerState) {
	if n.frame == nil {
		n.frame = make([]*LayerState, len(n.Model.Layers))
		for l := range n.frame {
			n.frame[l] = &LayerState{scratch: new(tensor.Scratch)}
		}
	}
	states := n.frame
	logits := n.graph.ForwardRange(0, len(states), x, func(l int, xin *tensor.Tensor) *tensor.Tensor {
		return n.forwardLayer(l, xin, states[l], n.Params[l])
	})
	return logits, states
}

// Backward runs the full backward pass from dLogits through the
// execution graph — merge gradients fan into both paths, branch input
// gradients accumulate at their taps — returning the gradient of the
// network input and all parameter gradients (views, see BackwardLayer).
// The input gradients go to the states' buffers (see Forward).
func (n *Network) Backward(dLogits *tensor.Tensor, states []*LayerState) (*tensor.Tensor, []Grads) {
	return n.backward(dLogits, states, true)
}

// BackwardParams is Backward for a training step: it returns only the
// parameter gradients, and skips the network input's gradient, which no
// layer consumes — the input gradient of every layer that reads the
// network input (Graph.Src < 0), the rule every engine of internal/dist
// applies too.
func (n *Network) BackwardParams(dLogits *tensor.Tensor, states []*LayerState) []Grads {
	_, grads := n.backward(dLogits, states, false)
	return grads
}

// backward is the one backward walk of Backward and BackwardParams.
func (n *Network) backward(dLogits *tensor.Tensor, states []*LayerState, inputGrad bool) (*tensor.Tensor, []Grads) {
	grads := make([]Grads, len(n.Model.Layers))
	dx := n.graph.BackwardRange(0, len(grads), dLogits, func(l int, dy *tensor.Tensor) *tensor.Tensor {
		grads[l] = n.GradBuffers(l)
		return n.backwardLayer(l, dy, states[l], n.Params[l], grads[l], inputGrad || n.graph.Src(l) >= 0)
	})
	return dx, grads
}

// Step applies SGD with learning rate lr to every parameter.
func (n *Network) Step(grads []Grads, lr float64) {
	for l := range n.Params {
		p, g := n.Params[l], grads[l]
		if p.W != nil && g.W != nil {
			tensor.SGDStep(p.W, g.W, lr)
		}
		if p.B != nil && g.B != nil {
			tensor.SGDStep(p.B, g.B, lr)
		}
		if p.Gamma != nil && g.Gamma != nil {
			tensor.SGDStep(p.Gamma, g.Gamma, lr)
		}
		if p.Beta != nil && g.Beta != nil {
			tensor.SGDStep(p.Beta, g.Beta, lr)
		}
	}
}

// TrainStep performs one full SGD iteration (forward, softmax loss,
// backward without the network input's gradient, update) and returns the
// loss — the sequential baseline every parallel strategy is validated
// against. A step in its steady state allocates only small headers: the
// activations, gradients and kernel scratch are the network's (see
// Forward).
func (n *Network) TrainStep(x *tensor.Tensor, labels []int, lr float64) float64 {
	logits, states := n.Forward(x)
	loss, dLogits := tensor.SoftmaxCrossEntropy(logits, labels)
	n.Step(n.BackwardParams(dLogits, states), lr)
	return loss
}

// CloneParams deep-copies all parameters (e.g. to snapshot a replica).
func (n *Network) CloneParams() []Params {
	out := make([]Params, len(n.Params))
	for i, p := range n.Params {
		if p.W != nil {
			out[i].W = p.W.Clone()
		}
		if p.B != nil {
			out[i].B = p.B.Clone()
		}
		if p.Gamma != nil {
			out[i].Gamma = p.Gamma.Clone()
		}
		if p.Beta != nil {
			out[i].Beta = p.Beta.Clone()
		}
	}
	return out
}
