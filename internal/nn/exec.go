package nn

import (
	"fmt"
	"math/rand"

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
	grads  []Grads // per-layer gradient buffers, see GradBuffers
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
	net := &Network{Model: m, Params: make([]Params, len(m.Layers)), graph: g, grads: make([]Grads, len(m.Layers))}
	for i := range m.Layers {
		l := &m.Layers[i]
		switch l.Kind {
		case Conv:
			shape := append([]int{l.F, l.C}, l.Kernel...)
			fanIn := float64(l.InSize())
			net.Params[i].W = tensor.New(shape...).RandN(rng, 1.0/(1.0+fanIn/64))
			net.Params[i].B = tensor.New(l.F).RandN(rng, 0.01)
		case FC:
			in := int(l.InSize())
			net.Params[i].W = tensor.New(l.F, in).RandN(rng, 1.0/(1.0+float64(in)/64))
			net.Params[i].B = tensor.New(l.F).RandN(rng, 0.01)
		case BatchNorm:
			g := tensor.New(l.C)
			g.Fill(1)
			net.Params[i].Gamma = g
			net.Params[i].Beta = tensor.New(l.C)
		}
	}
	return net
}

// LayerState carries forward-pass intermediates a layer's backward pass
// needs.
type LayerState struct {
	X      *tensor.Tensor // layer input as seen by forward
	Argmax []int          // max-pool winners
	BN     *tensor.BNState
}

// ForwardLayer applies layer l to x and returns the activation plus the
// state needed by BackwardLayer.
func (n *Network) ForwardLayer(l int, x *tensor.Tensor) (*tensor.Tensor, *LayerState) {
	spec := &n.Model.Layers[l]
	p := n.Params[l]
	st := &LayerState{X: x}
	switch spec.Kind {
	case Conv:
		y := tensor.ConvForward(x, p.W, p.B, tensor.ConvSpec{Stride: spec.Stride, Pad: spec.Pad})
		return y, st
	case Pool:
		y, arg := tensor.PoolForward(x, tensor.PoolSpec{Kind: spec.PoolKind, Window: spec.Kernel, Stride: spec.Stride, Pad: spec.Pad})
		st.Argmax = arg
		return y, st
	case FC:
		nBatch := x.Dim(0)
		flat := x.Reshape(nBatch, x.Len()/nBatch)
		y := tensor.FCForward(flat, p.W, p.B)
		return y, st
	case ReLU:
		return tensor.ReLUForward(x), st
	case BatchNorm:
		y, bn := tensor.BNForward(x, p.Gamma, p.Beta, 1e-5)
		st.BN = bn
		return y, st
	default:
		panic(fmt.Sprintf("nn: cannot execute layer kind %v", spec.Kind))
	}
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
// returning the input gradient and the parameter gradients — views of
// the layer's GradBuffers, valid until its next backward.
func (n *Network) BackwardLayer(l int, dy *tensor.Tensor, st *LayerState) (*tensor.Tensor, Grads) {
	spec := &n.Model.Layers[l]
	p := n.Params[l]
	switch spec.Kind {
	case Conv:
		g := n.GradBuffers(l)
		cs := tensor.ConvSpec{Stride: spec.Stride, Pad: spec.Pad}
		dx := tensor.ConvBackwardData(dy, p.W, st.X.Shape(), cs)
		tensor.ConvBackwardWeightInto(g.W, g.B, dy, st.X, cs)
		return dx, g
	case Pool:
		ps := tensor.PoolSpec{Kind: spec.PoolKind, Window: spec.Kernel, Stride: spec.Stride, Pad: spec.Pad}
		return tensor.PoolBackward(dy, st.X.Shape(), ps, st.Argmax), Grads{}
	case FC:
		g := n.GradBuffers(l)
		nBatch := st.X.Dim(0)
		flat := st.X.Reshape(nBatch, st.X.Len()/nBatch)
		return tensor.FCBackwardInto(g.W, g.B, dy, flat, p.W, st.X.Shape()), g
	case ReLU:
		return tensor.ReLUBackward(dy, st.X), Grads{}
	case BatchNorm:
		g := n.GradBuffers(l)
		tensor.BNBackwardReduceInto(g.Gamma, g.Beta, dy, st.BN)
		return tensor.BNBackwardApply(dy, p.Gamma, st.BN, g.Gamma, g.Beta), g
	default:
		panic(fmt.Sprintf("nn: cannot execute layer kind %v", spec.Kind))
	}
}

// Graph returns the network's compiled execution graph.
func (n *Network) Graph() *Graph { return n.graph }

// Forward runs the whole network through the execution graph — branch
// layers read their tap and merge additively — returning logits and
// per-layer states. For chain models the walk is bit-identical to the
// historical layer-by-layer loop.
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, []*LayerState) {
	states := make([]*LayerState, len(n.Model.Layers))
	logits := n.graph.ForwardRange(0, len(n.Model.Layers), x, func(l int, xin *tensor.Tensor) *tensor.Tensor {
		y, st := n.ForwardLayer(l, xin)
		states[l] = st
		return y
	})
	return logits, states
}

// Backward runs the full backward pass from dLogits through the
// execution graph — merge gradients fan into both paths, branch input
// gradients accumulate at their taps — returning the gradient of the
// network input and all parameter gradients (views, see BackwardLayer).
func (n *Network) Backward(dLogits *tensor.Tensor, states []*LayerState) (*tensor.Tensor, []Grads) {
	grads := make([]Grads, len(n.Model.Layers))
	dx := n.graph.BackwardRange(0, len(n.Model.Layers), dLogits, func(l int, dy *tensor.Tensor) *tensor.Tensor {
		d, g := n.BackwardLayer(l, dy, states[l])
		grads[l] = g
		return d
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
// backward, update) and returns the loss — the sequential baseline every
// parallel strategy is validated against.
func (n *Network) TrainStep(x *tensor.Tensor, labels []int, lr float64) float64 {
	logits, states := n.Forward(x)
	loss, dLogits := tensor.SoftmaxCrossEntropy(logits, labels)
	_, grads := n.Backward(dLogits, states)
	n.Step(grads, lr)
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
