package dist

import (
	"fmt"

	"paradl/internal/core"
	"paradl/internal/nn"
	"paradl/internal/strategy"
	"paradl/internal/tensor"
	"paradl/internal/trace"
)

// weightShard is one PE's slice of a weighted layer's parameters along
// axis: 0 slices the output filters (W and B of p), 1 the input
// channels (W alone; the bias stays whole in the replica). g holds the
// buffers the backward kernels write the slice's gradients into,
// overwritten by the layer's next backward (on axis 1 its B is the whole
// bias's gradient).
type weightShard struct {
	p    nn.Params
	g    nn.Grads
	axis int
	rng  strategy.Range
}

// tensorEngine is the one engine of Table 3's Tensor row, behind the
// serial (1×1), data (p2=1), filter and channel (p1=1), and data+filter
// registry entries: a p1×p2 grid of model-parallel groups joined by
// segmented cross-group gradient exchange.
//
// Filter parallelism (§3.4) shards every weighted layer's output
// channels (filters) across the PEs of a group. Each PE holds the full
// input activation, computes its output-channel slice, and the slices
// are Allgathered so the next layer again sees the full tensor.
// Backward, the input gradient is the Allreduced sum of per-shard
// contributions — reduce-scattered instead wherever the layer below
// immediately narrows to its own slice (the paper's footnote-2
// optimization) — while each PE's weight gradients are exact for its
// own filters — no gradient exchange at all within a group, the selling
// point of the strategy in Table 3.
//
// Channel parallelism (§3.5) is the same group with the input channels
// sharded instead: each PE convolves its channel slice of the input
// with its weight slice, the partial outputs are Allreduced before the
// bias is applied exactly once, and backward Allgathers the input
// gradient. Layers with fewer channels than PEs — in practice the first
// layer, which the paper also leaves unsplit (§4.2) — run replicated.
//
// Data parallelism (§3.1) is the p2=1 edge: p full replicas, each
// training on a contiguous shard of every batch — groups of one, so
// nothing is sharded, every layer runs replicated on the replica, and
// the segmented cross-group exchange is the classic gradient allreduce,
// after which the replicas take identical SGD steps and stay
// bit-synchronized. Serial is the 1×1 corner: one replica, whose
// exchange is a singleton that only steps.
//
// The df hybrid (§3.6) has both axes free: each of p1 groups trains on
// its batch shard with filter width p2, and the segmented allreduce
// sums each PE's weight-shard gradient over the groups into the global
// mean gradient. On every edge batch norm is synchronized across
// segments (one PE per group covers the global batch exactly once), so
// runs match the sequential baseline even on BN models — the paper's
// framework comparison point of §4.5.2. The BN layer op does it itself,
// over the segment its state carries (peCtx.layerState).
func tensorEngine(m *nn.Model, pl Plan, _ string, cfg *runConfig) (*engine, error) {
	p2, channel := pl.P2, pl.Strategy == core.Channel
	row := strategy.Grid{Family: strategy.Tensor, Model: m, Channel: channel}
	if name, limit := row.ModelLimit(); p2 > 1 && p2 > limit {
		return nil, fmt.Errorf("dist: model %q supports %s width <= %d (Table 3), got %d", m.Name, name, limit, p2)
	}
	rsOK := scatterableInputGrads(m, p2, cfg)
	return &engine{build: func(pe *peCtx) (stepFunc, ownership, error) {
		own := wholeOwnership(pe.net)
		shards, err := tensorShards(pe.net, pe.group.Rank(), p2, channel, own)
		if err != nil {
			return nil, nil, err
		}
		f := newTensorFrame(pe, newGradExchanger(pe.seg, pe.step, cfg), own, shards, rsOK)
		return func(x *tensor.Tensor, labels []int, weight float64) float64 {
			return tensorStep(f, x, labels, weight)
		}, own, nil
	}}, nil
}

// tensorFrame is what one PE of the Tensor grid keeps from step to
// step, built once by the engine's build: the exchanger every layer's
// gradients enter (take), the ownership table and the weight shards,
// plus per layer the nn.LayerState every step reuses.
type tensorFrame struct {
	pe     *peCtx
	ex     *gradExchanger
	own    ownership
	shards []*weightShard // nil for replicated layers
	rsOK   []bool         // see scatterableInputGrads; read at axis-0 shards only
	states []*nn.LayerState
	// chunkX and chunkDx are a ReLU's inside a reduce-scatter chain: this
	// rank's channel chunk of its stored input and the sliced gradient
	// backpropagated against it (see reluChunk).
	chunkX, chunkDx []*tensor.Tensor
}

// newTensorFrame builds the frame of a PE whose shards are carved.
func newTensorFrame(pe *peCtx, ex *gradExchanger, own ownership, shards []*weightShard, rsOK []bool) *tensorFrame {
	g := len(shards)
	f := &tensorFrame{pe: pe, ex: ex, own: own, shards: shards, rsOK: rsOK,
		states: make([]*nn.LayerState, g),
		chunkX: make([]*tensor.Tensor, g), chunkDx: make([]*tensor.Tensor, g)}
	for l := range shards {
		f.states[l] = pe.layerState(l, pe.seg)
		ex.adopt(f.states[l], &own[l])
	}
	return f
}

// op returns what layer l's op reads and writes: a weight shard's
// parameters and gradient buffers for a sharded Conv/FC, the replica's
// for every other layer.
func (f *tensorFrame) op(l int) (nn.Params, nn.Grads) {
	if sh := f.shards[l]; sh != nil {
		return sh.p, sh.g
	}
	return f.pe.net.Params[l], f.pe.net.GradBuffers(l)
}

// scatterableInputGrads marks the sharded layers whose backward input
// gradient may be ReduceScattered instead of Allreduced — the paper's
// footnote-2 filter optimization. It holds for layer l when everything
// between l and the sharded layer below it is element-wise and
// channel-preserving (ReLU), so each PE consumes only its own
// output-channel slice of the gradient: the slice flows through the
// intermediate ReLUs and arrives at the lower layer's slice already
// narrowed, and the chunking (tensor.SplitSizes over the channel axis)
// coincides with strategy.FilterShards by construction. Windowed layers
// (Pool) and segment-synchronized BN need the full-width gradient and
// break the chain.
func scatterableInputGrads(m *nn.Model, p2 int, cfg *runConfig) []bool {
	rsOK := make([]bool, m.G())
	if cfg.arInputGrad || p2 <= 1 {
		return rsOK
	}
	for l := range m.Layers {
		if m.Layers[l].Branch {
			// A merge point's gradient feeds two consumers (the main
			// path and the shortcut) and every tap adds a second
			// gradient stream, so no narrowing chain survives a
			// residual block: branch models keep the full-width
			// allreduce everywhere.
			return rsOK
		}
	}
	prevSharded := false // a sharded layer lies below, with…
	chainOK := false     // …only ReLUs in between
	for l := range m.Layers {
		switch m.Layers[l].Kind {
		case nn.Conv, nn.FC:
			rsOK[l] = prevSharded && chainOK
			prevSharded, chainOK = true, true
		case nn.ReLU:
			// channel-preserving, element-wise: keeps the chain intact
		default:
			chainOK = false
		}
	}
	return rsOK
}

// tensorShards carves rank's slice of every weighted layer of an
// (identically seeded) full replica and records it in own: the
// output-channel slice of W and B, or with channel set the input-channel
// slice of W. The slices are the PE's authoritative parameters from
// here on; the replica keeps only the replicated layers' parameters
// (and the channel shards' whole biases) live. Nothing is carved at
// width 1 — the data edge and the 1×1 corner, where the replica is the
// PE's whole state — and on the channel edge a layer with fewer
// channels than PEs keeps shards[l] == nil too: both run replicated. An
// FC weight is sliced by channel blocks of the flattened input (the
// layer is the paper's kernel-equals-input convolution, so a channel is
// a contiguous run of vol(In) columns — contiguous per rank, so the
// same axis-1 Allgather inverts both kinds).
func tensorShards(net *nn.Network, rank, p int, channel bool, own ownership) ([]*weightShard, error) {
	layers := net.Model.Layers
	shards := make([]*weightShard, len(layers))
	for l := range layers {
		spec := &layers[l]
		if spec.Kind != nn.Conv && spec.Kind != nn.FC || p == 1 || channel && spec.C < p {
			continue
		}
		ranges, axis, vol := strategy.FilterShards, 0, 1 // vol: canonical columns per channel
		if channel {
			ranges, axis = strategy.ChannelShards, 1
			if spec.Kind == nn.FC {
				vol = int(spec.InSize()) / spec.C
			}
		}
		rngs, err := ranges(spec, p)
		if err != nil {
			return nil, err
		}
		rng := rngs[rank]
		sh := &weightShard{axis: axis, rng: rng}
		sh.p.W = net.Params[l].W.Narrow(axis, rng.Start*vol, rng.Size()*vol)
		own.slice(l, fieldW, sh.p.W, axis, rng.Start*vol, rng.Size()*vol)
		if axis == 0 {
			sh.p.B = net.Params[l].B.Narrow(0, rng.Start, rng.Size())
			own.slice(l, fieldB, sh.p.B, 0, rng.Start, rng.Size())
		}
		sh.g = nn.Grads{W: tensor.New(sh.p.W.Shape()...), B: tensor.New(sh.p.W.Dim(0))}
		shards[l] = sh
	}
	return shards, nil
}

// tensorStep runs one SGD iteration of the Tensor grid on this group's
// batch shard x, weighted n_g/B in the global loss. Scaling the loss
// gradient by the weight up front makes every local gradient exactly
// this group's contribution to the full-batch mean gradient, so the
// cross-group exchange is a plain segmented sum. Batch norm, whose full
// activation is replicated within the group, synchronizes across the
// segment inside its op — one PE per group covers the global batch
// exactly once, and every segment reduces in the same group order, so
// all PEs agree bit-for-bit; its statistics and global gradients stay
// in the frame (its state and GradBuffers).
//
// Every layer runs through the frame's op table (nn.ForwardInto,
// nn.BackwardInto): a sharded Conv/FC is the layer's op over its
// shard's weights, bias and gradient buffers, every other layer the op
// over the replica's, and the data edge (a group of one) is the same
// walk with nothing sharded and no group collective. The frame's
// buffers are rewritten by the next step, so the ownership rule is: a
// frame buffer may be handed to a group collective only if that
// collective returns it with no peer still reading it. The partial
// outputs and input gradients qualify — AllReduceSum's ring returns its
// buffer after the closing ack, its tree after the upward send was
// consumed, and ReduceScatterSum reads its input locally and sends
// narrowed copies. AllGather does not (it forwards its input with no
// ack), so a filter shard's forward output and a channel shard's input
// gradient travel as copies (gatherShard) and the concatenation is
// fresh; the data edge, which has no shard, runs entirely on the frame.
//
// A channel shard (axis 1) convolves its input-channel slice of the
// activation, its partial output is Allreduced and the whole bias added
// once; backward it takes the full dy, and its input-gradient slices
// are Allgathered. A filter shard (axis 0) has its outputs Allgathered
// and backpropagates its slice of dy; its input gradient is Allreduced
// to full width — except at the rsOK layers, where it is
// ReduceScattered so each PE receives only its own channel slice
// (footnote 2): the slice rides through the intermediate ReLUs (sliced
// against the matching slice of their stored input) and is consumed by
// the sharded layer below without ever materializing the full tensor.
//
// The cross-group exchange is bucketed (ex): each layer's gradients
// enter it (take) the moment its backward completes — the whole of it:
// the exchange may rewrite the weights from then on — so with overlap on
// the segment exchange of layer l hides behind the backward compute of
// the layers below it.
func tensorStep(f *tensorFrame, x *tensor.Tensor, labels []int, weight float64) float64 {
	group, seg, net, tr := f.pe.group, f.pe.seg, f.pe.net, f.pe.tr
	layers := net.Model.Layers
	gph := net.Graph()
	g := len(layers)
	tr.Begin(trace.ComputeForward)
	cur := gph.ForwardRange(0, g, x, func(l int, xin *tensor.Tensor) *tensor.Tensor {
		st, sh := f.states[l], f.shards[l]
		if sh != nil && sh.axis == 1 {
			xin = xin.Narrow(1, sh.rng.Start, sh.rng.Size())
		}
		p, _ := f.op(l)
		y := net.ForwardInto(l, xin, st, p)
		if sh == nil {
			// Channel-wise layers (and, on the channel edge, layers too
			// narrow to split; at width 1, every layer) run replicated on
			// the group's full activation and stay bit-identical across
			// the group.
			return y
		}
		// Shortcut convolutions shard exactly like main-path ones: the
		// graph walk routes xin from the tap and merges the output into
		// the main path.
		tr.Begin(trace.CollectiveWait)
		if sh.axis == 1 {
			y = group.AllReduceSum(y)
			tr.Begin(trace.ComputeForward)
			tensor.AddBias(y, net.Params[l].B)
			return y
		}
		out := gatherShard(group, y, 1)
		tr.Begin(trace.ComputeForward)
		return out
	})
	loss, dy := tensor.SoftmaxCrossEntropy(cur, labels)
	if weight != 1 {
		dy.Scale(weight)
	}
	tr.Begin(trace.ComputeBackward)

	dySliced := false // the main-path gradient holds only this PE's channel slice
	gph.BackwardRange(0, g, dy, func(l int, dy *tensor.Tensor) *tensor.Tensor {
		st, sh := f.states[l], f.shards[l]
		// No consumer for the input gradient — the bottom layer, or a
		// shortcut tapping the network input — skips the data backward
		// and, for a shard, its group-wide exchange.
		inputGrad := gph.Src(l) >= 0
		switch {
		case sh == nil && dySliced:
			// Only ReLU can sit inside a reduce-scatter chain
			// (scatterableInputGrads): backpropagate the slice against
			// the matching channel slice of the stored input.
			if layers[l].Kind != nn.ReLU {
				panic(fmt.Sprintf("dist: layer %d (%v) reached with a sliced gradient; scatterableInputGrads admitted a non-ReLU chain", l, layers[l].Kind))
			}
			return f.reluChunk(l, dy, st.X, group)
		case sh != nil && sh.axis == 0 && !dySliced:
			dy = dy.Narrow(1, sh.rng.Start, sh.rng.Size())
		}
		p, bufs := f.op(l)
		dx := net.BackwardInto(l, dy, st, p, bufs, inputGrad)
		// The gradients enter the exchange after the op's last read of
		// the layer's weights. A channel shard's bias gradient goes to
		// its whole bias's everyRank row.
		f.ex.take(st, &f.own[l], &bufs)
		if sh == nil || dx == nil {
			return dx
		}
		tr.Begin(trace.CollectiveWait)
		out, sliced := exchangeInputGrad(group, dx, sh.axis, f.rsOK[l])
		tr.Begin(trace.ComputeBackward)
		if !layers[l].Branch {
			dySliced = sliced
		}
		return out
	})

	// Cross-group gradient exchange (§4.5.1, segmented): every pushed
	// gradient is this group's batch-shard contribution to the global
	// mean gradient and sums over the segment, in the size-bounded
	// buckets pushed above as each layer's backward completed — drain is
	// the barrier that synchronizes every in-flight bucket and leaves
	// every parameter stepped. Within a group the exchange is free:
	// filter shards are exact for their own filters, channel shards for
	// their channels, a channel shard's bias gradient Σdy is the same on
	// every PE, and the channel edge's replicated narrow layers are exact
	// on every PE. BN is segment-synchronized whenever the segment is
	// wider than one, so its gradients are already global and held, not
	// pushed. With p1=1 — serial, pure filter or channel — the segment is
	// singleton: no exchange at all, drain only steps.
	f.ex.drain()
	return f.pe.globalLoss(seg, loss*weight)
}

// gatherShard allgathers a frame buffer along axis: a filter shard's
// forward output (channels), a channel shard's input gradient, or the
// spatial trunk's slab. AllGather forwards its input to the group hop by
// hop with no ack, so a peer may still read it after the call returns:
// past a group of one the buffer, which the layer's next step rewrites,
// travels as a copy. A group of one gathers nothing and returns the
// buffer itself.
func gatherShard(group *Comm, y *tensor.Tensor, axis int) *tensor.Tensor {
	if group.Size() > 1 {
		y = y.Clone()
	}
	return group.AllGather(y, axis)
}

// exchangeInputGrad performs the group-wide input-gradient exchange of
// one sharded layer's backward pass. A channel shard's slices (axis 1)
// are Allgathered. A filter shard's partial sums (axis 0) are
// Allreduced to full width by default, or — when the footnote-2
// precondition holds for this layer — ReduceScattered along the channel
// axis, leaving each PE exactly the slice the layer below will consume.
// All three are done with dxPart — a buffer of the layer's frame state —
// when they return (gatherShard sends a copy), so the frame may rewrite
// it next step (tensorStep's ownership rule).
func exchangeInputGrad(group *Comm, dxPart *tensor.Tensor, axis int, rs bool) (*tensor.Tensor, bool) {
	switch {
	case axis == 1:
		return gatherShard(group, dxPart, 1), false
	case rs:
		return group.ReduceScatterSum(dxPart, 1), true
	}
	return group.AllReduceSum(dxPart), false
}

// reluChunk backpropagates ReLU layer l's sliced gradient dy against
// this rank's canonical chunk of its stored input x along the channel
// axis — the region a ReduceScattered gradient corresponds to — in the
// frame's buffers for l, which follow dy's shape.
func (f *tensorFrame) reluChunk(l int, dy, x *tensor.Tensor, group *Comm) *tensor.Tensor {
	xc, dx := f.chunkX[l], f.chunkDx[l]
	if xc == nil || !xc.SameShape(dy) {
		xc, dx = tensor.New(dy.Shape()...), tensor.New(dy.Shape()...)
		f.chunkX[l], f.chunkDx[l] = xc, dx
	}
	c, size := x.Dim(1), dy.Dim(1)
	vol := x.Len() / (x.Dim(0) * c)
	off := tensor.SplitOffsets(c, group.Size())[group.Rank()] * vol
	src, dst, row := x.Data(), xc.Data(), size*vol
	for ni := range x.Dim(0) {
		copy(dst[ni*row:(ni+1)*row], src[ni*c*vol+off:])
	}
	tensor.ReLUBackwardInto(dx, dy, xc)
	return dx
}
