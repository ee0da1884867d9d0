package dist

import (
	"fmt"

	"paradl/internal/nn"
	"paradl/internal/strategy"
	"paradl/internal/tensor"
	"paradl/internal/trace"
)

// weightShard is one PE's slice of a weighted layer's parameters (W and
// B of p; a channel shard keeps no bias), with the gradient buffers the
// backward kernels write that slice's gradients into (W and B of g,
// overwritten by the layer's next backward) — the replica's GradBuffers
// when the slice is the whole layer.
type weightShard struct {
	p   nn.Params
	g   nn.Grads
	rng strategy.Range
}

// newWeightShard pairs a parameter slice with its gradient buffers.
func newWeightShard(w, b *tensor.Tensor, rng strategy.Range) *weightShard {
	return &weightShard{p: nn.Params{W: w, B: b}, g: nn.Grads{W: tensor.New(w.Shape()...), B: tensor.New(w.Dim(0))}, rng: rng}
}

// dataFilterEngine is the shared engine behind the data (p2=1), filter
// (p1=1), and data+filter registry entries: a p1×p2 grid of
// filter-parallel groups joined by segmented cross-group gradient
// exchange.
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
// Data parallelism (§3.1) is the p2=1 edge: p full replicas, each
// training on a contiguous shard of every batch — groups of one, so
// every filter shard spans its whole layer and the segmented
// cross-group exchange is the classic gradient allreduce, after which
// the replicas take identical SGD steps and stay bit-synchronized.
//
// The df hybrid (§3.6) has both axes free: each of p1 groups trains on
// its batch shard with filter width p2, and the segmented allreduce
// sums each PE's weight-shard gradient over the groups into the global
// mean gradient. On every edge batch norm is synchronized across
// segments (one PE per group covers the global batch exactly once), so
// runs match the sequential baseline even on BN models — the paper's
// framework comparison point of §4.5.2.
func dataFilterEngine(m *nn.Model, pl Plan, _ string, cfg *runConfig) (*engine, error) {
	p2 := pl.P2
	if mf := m.MinFilters(); p2 > 1 && p2 > mf {
		return nil, fmt.Errorf("dist: model %q supports filter width <= min F_l = %d (Table 3), got %d", m.Name, mf, p2)
	}
	rsOK := scatterableInputGrads(m, p2, cfg)
	return &engine{build: func(pe *peCtx) (stepFunc, ownership, error) {
		ex := newGradExchanger(pe.seg, pe.step, cfg)
		own := wholeOwnership(pe.net)
		shards, err := filterShards(pe.net, pe.group.Rank(), p2, own)
		if err != nil {
			return nil, nil, err
		}
		for l := range shards {
			if shards[l] != nil {
				ex.shard(&own[l][fieldW])
				ex.shard(&own[l][fieldB])
			}
		}
		f := newDataFilterFrame(pe, ex, own, shards, rsOK)
		return func(x *tensor.Tensor, labels []int, weight float64) float64 {
			return dataFilterStep(f, x, labels, weight)
		}, own, nil
	}}, nil
}

// dataFilterFrame is what one PE of the data×filter grid keeps from
// step to step, built once by the engine's build: the exchanger, the
// ownership table and the weight shards, plus per layer the
// nn.LayerState every step reuses.
type dataFilterFrame struct {
	pe     *peCtx
	ex     *gradExchanger
	own    ownership
	shards []*weightShard // nil for replicated layers
	rsOK   []bool         // see scatterableInputGrads
	bnSync []bool         // BN synchronized across the segment
	states []*nn.LayerState
	// grads is what stepNet applies: the replicated layers' buffers, the
	// segment-synchronized BN gradients of the current step, and nothing
	// for the shards, which the exchanger steps.
	grads []nn.Grads
}

// newDataFilterFrame builds the frame of a PE whose shards are carved.
func newDataFilterFrame(pe *peCtx, ex *gradExchanger, own ownership, shards []*weightShard, rsOK []bool) *dataFilterFrame {
	net, g := pe.net, len(shards)
	f := &dataFilterFrame{pe: pe, ex: ex, own: own, shards: shards, rsOK: rsOK, bnSync: make([]bool, g),
		states: make([]*nn.LayerState, g), grads: make([]nn.Grads, g)}
	for l, sh := range shards {
		f.states[l] = new(nn.LayerState)
		if sh == nil {
			f.grads[l] = net.GradBuffers(l)
			f.bnSync[l] = net.Model.Layers[l].Kind == nn.BatchNorm && pe.seg.Size() > 1
		}
	}
	return f
}

// op returns what layer l's op reads and writes: a weight shard's
// parameters and gradient buffers for a sharded Conv/FC, the replica's
// for every other layer.
func (f *dataFilterFrame) op(l int) (nn.Params, nn.Grads) {
	if sh := f.shards[l]; sh != nil {
		return sh.p, sh.g
	}
	return f.pe.net.Params[l], f.grads[l]
}

// scatterableInputGrads marks the sharded layers whose backward input
// gradient may be ReduceScattered instead of Allreduced — the paper's
// footnote-2 filter optimization. It holds for layer l when everything
// between l and the sharded layer below it is element-wise and
// channel-preserving (ReLU), so each PE consumes only its own
// output-channel slice of the gradient: the slice flows through the
// intermediate ReLUs and arrives at the lower layer's shardGrad already
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

// filterShards carves rank's output-channel slice out of every weighted
// layer of an (identically seeded) full replica and records it in own.
// The slices are the PE's authoritative parameters from here on; the
// replica keeps only the replicated BN parameters live.
func filterShards(net *nn.Network, rank, p int, own ownership) ([]*weightShard, error) {
	layers := net.Model.Layers
	shards := make([]*weightShard, len(layers))
	for l := range layers {
		spec := &layers[l]
		if spec.Kind != nn.Conv && spec.Kind != nn.FC {
			continue
		}
		rngs, err := strategy.FilterShards(spec, p)
		if err != nil {
			return nil, err
		}
		rng := rngs[rank]
		if p == 1 {
			// Degenerate width (the data-parallel grid edge): the shard
			// IS the whole parameter — alias it and the replica's
			// gradient buffers instead of Narrow-copying every weight
			// tensor per replica; own already says "whole".
			shards[l] = &weightShard{p: net.Params[l], g: net.GradBuffers(l), rng: rng}
			continue
		}
		sh := newWeightShard(net.Params[l].W.Narrow(0, rng.Start, rng.Size()), net.Params[l].B.Narrow(0, rng.Start, rng.Size()), rng)
		own.slice(l, fieldW, sh.p.W, 0, rng.Start, rng.Size())
		own.slice(l, fieldB, sh.p.B, 0, rng.Start, rng.Size())
		shards[l] = sh
	}
	return shards, nil
}

// shardGrad returns this PE's output-channel slice of the loss
// gradient — the whole tensor when the group is singleton (the
// data-parallel grid edge), avoiding a full-width Narrow copy.
func shardGrad(dy *tensor.Tensor, sh *weightShard, group *Comm) *tensor.Tensor {
	if group.Size() == 1 {
		return dy
	}
	return dy.Narrow(1, sh.rng.Start, sh.rng.Size())
}

// dataFilterStep runs one SGD iteration of the data×filter grid on this
// group's batch shard x, weighted n_g/B in the global loss. Scaling the
// loss gradient by the weight up front makes every local gradient
// exactly this group's contribution to the full-batch mean gradient, so
// the cross-group exchange is a plain segmented sum. Batch norm, whose
// full activation is replicated within the group, synchronizes across
// the segment — one PE per group covers the global batch exactly once,
// and every segment reduces in the same group order, so all PEs agree
// bit-for-bit.
//
// Every layer runs through the frame's op table (nn.ForwardInto,
// nn.BackwardInto): a sharded Conv/FC is the layer's op over its
// shard's weights, bias and gradient buffers, and the data edge (a
// group of one) is the same walk with identity collectives. The frame's
// buffers are rewritten by the next step, so the ownership rule is: a
// frame buffer may be handed to a group collective only if that
// collective returns it with no peer still reading it. The input
// gradients qualify — AllReduceSum's ring returns its buffer after the
// closing ack, its tree after the upward send was consumed, and
// ReduceScatterSum reads its input locally and sends narrowed copies.
// AllGather does not (it forwards its input with no ack), so past a
// group of one a shard's forward output travels as a copy (gatherShard)
// and the concatenation is fresh; a group of one gathers nothing, and
// the data edge runs entirely on the frame.
//
// Backward, the input gradient is Allreduced to full width — except at
// the rsOK layers, where it is ReduceScattered so each PE receives only
// its own channel slice (footnote 2): the slice rides through the
// intermediate ReLUs (sliced against the matching slice of their stored
// input) and is consumed by the sharded layer below without ever
// materializing the full tensor.
//
// The cross-group exchange is bucketed (ex): each sharded layer's
// weight/bias gradients are pushed the moment its backward completes —
// the whole of it: the exchange may rewrite the weights from then on —
// so with overlap on the segment exchange of layer l hides behind the
// backward compute of the layers below it.
func dataFilterStep(f *dataFilterFrame, x *tensor.Tensor, labels []int, weight float64) float64 {
	group, seg, net, tr := f.pe.group, f.pe.seg, f.pe.net, f.pe.tr
	layers := net.Model.Layers
	gph := net.Graph()
	g := len(layers)
	tr.Begin(trace.ComputeForward)
	cur := gph.ForwardRange(0, g, x, func(l int, xin *tensor.Tensor) *tensor.Tensor {
		st := f.states[l]
		if f.bnSync[l] {
			tr.Begin(trace.BNSync)
			y, bn := syncBNForward(seg, xin, net.Params[l].Gamma, net.Params[l].Beta)
			tr.Begin(trace.ComputeForward)
			st.X, st.BN = xin, bn
			return y
		}
		p, _ := f.op(l)
		y := net.ForwardInto(l, xin, st, p)
		if f.shards[l] == nil {
			// Channel-wise layers run replicated on the group's full
			// activation and stay bit-identical across the group.
			return y
		}
		// Shortcut convolutions shard exactly like main-path ones: the
		// graph walk routes xin from the tap and merges the allgathered
		// output into the main path.
		tr.Begin(trace.CollectiveWait)
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
		case f.bnSync[l]:
			tr.Begin(trace.BNSync)
			dx, dgamma, dbeta := syncBNBackward(seg, dy, net.Params[l].Gamma, st.BN)
			tr.Begin(trace.ComputeBackward)
			f.grads[l] = nn.Grads{Gamma: dgamma, Beta: dbeta}
			return dx
		case sh == nil && dySliced:
			// Only ReLU can sit inside a reduce-scatter chain
			// (scatterableInputGrads): backpropagate the slice against
			// the matching channel slice of the stored input.
			if layers[l].Kind != nn.ReLU {
				panic(fmt.Sprintf("dist: layer %d (%v) reached with a sliced gradient; scatterableInputGrads admitted a non-ReLU chain", l, layers[l].Kind))
			}
			return tensor.ReLUBackward(dy, channelChunk(st.X, group))
		case sh != nil && !dySliced:
			dy = shardGrad(dy, sh, group)
		}
		p, bufs := f.op(l)
		dx := net.BackwardInto(l, dy, st, p, bufs, inputGrad)
		if sh == nil {
			return dx
		}
		// The push comes after the op's last read of the shard's weights.
		f.ex.pushGrads(&f.own[l], &bufs)
		if dx == nil {
			return nil
		}
		tr.Begin(trace.CollectiveWait)
		out, sliced := exchangeInputGrad(group, dx, f.rsOK[l])
		tr.Begin(trace.ComputeBackward)
		if !layers[l].Branch {
			dySliced = sliced
		}
		return out
	})

	// Cross-group gradient exchange (§4.5.1, segmented): every shard
	// gradient is this group's batch-shard contribution to the global
	// mean gradient and sums over the segment, in the size-bounded
	// buckets pushed above as each layer's backward completed — drain is
	// the barrier that synchronizes every in-flight bucket and leaves
	// every shard stepped. Within a group the exchange is free (filter
	// shards are exact for their own filters). No other parameters need
	// traffic: every Conv/FC is sharded, the parameterless layers
	// contribute empty grads, and BN — the only replicated parameterized
	// layer — is segment-synchronized whenever the segment is wider than
	// one, so its gradients are already global and stepNet applies them.
	// With p1=1 — pure filter — the segment is singleton: no exchange at
	// all, drain only steps.
	f.ex.drain()
	f.pe.step.stepNet(net, f.grads)
	tr.Begin(trace.CollectiveWait)
	global := seg.AllReduceScalar(loss * weight)
	tr.Begin(trace.ComputeBackward)
	return global
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
// one sharded layer's backward pass: a full-width Allreduce by default,
// or — when the footnote-2 precondition holds for this layer — a
// ReduceScatter along the channel axis that leaves each PE exactly the
// slice the layer below will consume. Both take dxPart — a buffer of
// the layer's frame state — and are done with it when they return, so
// the frame may rewrite it next step (dataFilterStep's ownership rule).
func exchangeInputGrad(group *Comm, dxPart *tensor.Tensor, rs bool) (*tensor.Tensor, bool) {
	if rs && group.Size() > 1 {
		return group.ReduceScatterSum(dxPart, 1), true
	}
	return group.AllReduceSum(dxPart), false
}

// channelChunk returns this rank's canonical chunk of x along the
// channel axis — the region a ReduceScattered gradient corresponds to.
func channelChunk(x *tensor.Tensor, group *Comm) *tensor.Tensor {
	p, r := group.Size(), group.Rank()
	off := tensor.SplitOffsets(x.Dim(1), p)[r]
	return x.Narrow(1, off, tensor.SplitSizes(x.Dim(1), p)[r])
}

// channelEngine executes channel parallelism (§3.5): every weighted
// layer's input channels are sharded, each PE convolves its channel
// slice with its weight slice, and the partial outputs are summed by
// Allreduce before the bias is applied exactly once. Layers with fewer
// channels than PEs — in practice the first layer, which the paper also
// leaves unsplit (§4.2) — run replicated.
func channelEngine(m *nn.Model, pl Plan, _ string, _ *runConfig) (*engine, error) {
	p := pl.P2
	if mc := m.MinChannels(); p > 1 && p > mc {
		return nil, fmt.Errorf("dist: model %q supports channel width <= min C_l = %d (Table 3), got p=%d", m.Name, mc, p)
	}
	return &engine{build: func(pe *peCtx) (stepFunc, ownership, error) {
		own := wholeOwnership(pe.net)
		shards, err := channelShards(pe.net, pe.group.Rank(), p, own)
		if err != nil {
			return nil, nil, err
		}
		states, grads := make([]*nn.LayerState, len(shards)), make([]nn.Grads, len(shards))
		for l := range shards {
			states[l] = new(nn.LayerState)
			if shards[l] == nil {
				grads[l] = pe.net.GradBuffers(l)
			}
		}
		return func(x *tensor.Tensor, labels []int, _ float64) float64 {
			return channelStep(pe, shards, states, grads, x, labels)
		}, own, nil
	}}, nil
}

// channelShards carves rank's input-channel slice of every weighted
// layer wide enough to split and records it in own; narrower layers
// keep shards[l] == nil and run replicated. FC weights are sliced by
// channel blocks of the flattened input (the layer is the paper's
// kernel-equals-input convolution, so a channel is a contiguous run of
// vol(In) columns — contiguous per rank, so the same axis-1 Allgather
// inverts both kinds). Biases stay whole: replicated and stepped in
// lockstep on every PE.
func channelShards(net *nn.Network, rank, p int, own ownership) ([]*weightShard, error) {
	layers := net.Model.Layers
	shards := make([]*weightShard, len(layers))
	if p == 1 {
		return shards, nil // degenerate width: run every layer replicated
	}
	for l := range layers {
		spec := &layers[l]
		if (spec.Kind != nn.Conv && spec.Kind != nn.FC) || spec.C < p {
			continue
		}
		rngs, err := strategy.ChannelShards(spec, p)
		if err != nil {
			return nil, err
		}
		rng := rngs[rank]
		vol := 1 // canonical columns per channel
		if spec.Kind == nn.FC {
			vol = int(spec.InSize()) / spec.C
		}
		sh := newWeightShard(net.Params[l].W.Narrow(1, rng.Start*vol, rng.Size()*vol), nil, rng)
		own.slice(l, fieldW, sh.p.W, 1, rng.Start*vol, rng.Size()*vol)
		shards[l] = sh
	}
	return shards, nil
}

// channelStep runs one channel-parallel SGD iteration. The graph walk
// routes shortcut convolutions from their taps and merges their output
// into the main path; a sharded shortcut convolves its input-channel
// slice of the tap activation like any other sharded layer.
//
// Every layer runs through its op in its frame state (states): a
// sharded Conv/FC is the layer's op over its shard's weights and
// gradient buffers, with no bias, and a replicated layer writes the
// replica's gradient buffers (grads), which stepNet applies. Under
// dataFilterStep's ownership rule a shard's partial output goes to the
// allreduce as it is, and its input gradient to the allgather as a copy
// (gatherShard); the input-channel slice and the concatenation stay
// fresh.
func channelStep(pe *peCtx, shards []*weightShard, states []*nn.LayerState, grads []nn.Grads, x *tensor.Tensor, labels []int) float64 {
	c, net, step, tr := pe.group, pe.net, pe.step, pe.tr
	gph := net.Graph()
	tr.Begin(trace.ComputeForward)
	cur := gph.ForwardRange(0, len(shards), x, func(l int, xin *tensor.Tensor) *tensor.Tensor {
		sh := shards[l]
		if sh == nil {
			// Replicated layer (channel-wise, or too narrow to split):
			// full activation, identical on every PE.
			return net.ForwardInto(l, xin, states[l], net.Params[l])
		}
		part := net.ForwardInto(l, xin.Narrow(1, sh.rng.Start, sh.rng.Size()), states[l], sh.p)
		tr.Begin(trace.CollectiveWait)
		y := c.AllReduceSum(part)
		tr.Begin(trace.ComputeForward)
		tensor.AddBias(y, net.Params[l].B)
		return y
	})
	loss, dy := tensor.SoftmaxCrossEntropy(cur, labels)
	tr.Begin(trace.ComputeBackward)

	gph.BackwardRange(0, len(shards), dy, func(l int, dy *tensor.Tensor) *tensor.Tensor {
		// No consumer for the input gradient — the bottom layer, or a
		// shortcut tapping the network input — skips the data backward
		// and, for a shard, its allgather.
		inputGrad := gph.Src(l) >= 0
		sh := shards[l]
		if sh == nil {
			return net.BackwardInto(l, dy, states[l], net.Params[l], grads[l], inputGrad)
		}
		dx := net.BackwardInto(l, dy, states[l], sh.p, sh.g, inputGrad)
		if dx == nil {
			return nil
		}
		tr.Begin(trace.CollectiveWait)
		out := gatherShard(c, dx, 1)
		tr.Begin(trace.ComputeBackward)
		return out
	})

	// Weight-shard gradients are exact (dy was global); the bias
	// gradient Σdy is identical on every PE, so the replicated bias
	// steps in lockstep without any exchange.
	step.stepNet(net, grads)
	for l, sh := range shards {
		if sh == nil {
			continue
		}
		step.step(sh.p.W, sh.g.W)
		step.step(net.Params[l].B, sh.g.B)
	}
	return loss
}
