package dist

import (
	"fmt"
	"math"

	"paradl/internal/nn"
	"paradl/internal/strategy"
	"paradl/internal/tensor"
	"paradl/internal/trace"
)

// spatialAxis is the tensor axis of the first spatial dimension in the
// [N, C, spatial...] layout — the axis the spatial strategy decomposes
// (internal/strategy splits height only, preserving the halo pattern).
const spatialAxis = 2

// rowSpan is a half-open interval [Lo, Hi) of global rows along the
// split axis.
type rowSpan struct{ Lo, Hi int }

func (s rowSpan) len() int { return s.Hi - s.Lo }

func spanOf(r strategy.Range) rowSpan { return rowSpan{r.Start, r.End} }

func intersect(a, b rowSpan) rowSpan {
	lo, hi := max(a.Lo, b.Lo), min(a.Hi, b.Hi)
	if hi < lo {
		hi = lo
	}
	return rowSpan{lo, hi}
}

// layerPlan precomputes, for one windowed (Conv/Pool) layer, every PE's
// owned rows of the input and output activations plus the real input
// rows [need) and synthetic edge-padding rows each PE must assemble to
// compute exactly its output shard, and the value of those edge rows
// (fill). It is shared read-only by all PEs, so sender and receiver
// agree on every halo message without any negotiation round.
type layerPlan struct {
	in, out      []strategy.Range
	need         []rowSpan
	padLo, padHi []int
	fill         float64
}

// planLayer derives the halo-exchange plan of layer l at width p. For a
// window of size k, stride s, padding pd, PE i's output rows [oS, oE)
// require global input rows [oS·s − pd, (oE−1)·s − pd + k); rows below 0
// or past the input extent are synthesized as edge padding, the rest are
// fetched from whoever owns them. The edge rows are 0 for convolution
// and average pooling; max pooling uses −Inf because the sequential
// kernel skips padded positions, which a −Inf row can never beat.
func planLayer(l *nn.Layer, p int) (*layerPlan, error) {
	out, err := strategy.SpatialShards(l.Out[0], p)
	if err != nil {
		return nil, err
	}
	in, err := strategy.SpatialShards(l.In[0], p)
	if err != nil {
		return nil, err
	}
	pl := &layerPlan{
		in: in, out: out,
		need:  make([]rowSpan, p),
		padLo: make([]int, p),
		padHi: make([]int, p),
	}
	if l.Kind == nn.Pool && l.PoolKind == tensor.MaxPool {
		pl.fill = math.Inf(-1)
	}
	k, s, pd := l.Kernel[0], l.Stride[0], l.Pad[0]
	for i := 0; i < p; i++ {
		needLo := out[i].Start*s - pd
		needHi := (out[i].End-1)*s - pd + k
		realLo, realHi := max(needLo, 0), min(needHi, l.In[0])
		pl.need[i] = rowSpan{realLo, realHi}
		pl.padLo[i] = realLo - needLo
		pl.padHi[i] = needHi - realHi
	}
	return pl, nil
}

// haloExchange assembles this PE's windowed-layer input block — its own
// rows plus halo rows fetched point-to-point from the PEs owning them
// (§3.2), with pl.fill rows synthesized on the outer edges — in block,
// the layer's block of the last step, reallocated (and its edge rows
// filled, which nothing else writes) only when its shape changes.
// Ownership: x, a frame buffer, is only read — this PE's rows go in as a
// region copy, and the halo rows a peer needs travel as narrowed copies
// handed off to it (sendOwned's ownership transfer), which the peer
// copies into its own block. The block is this PE's alone.
func haloExchange(c *Comm, x *tensor.Tensor, pl *layerPlan, block *tensor.Tensor) *tensor.Tensor {
	rank, p := c.Rank(), c.Size()
	own := spanOf(pl.in[rank])
	for dst := 0; dst < p; dst++ {
		if dst == rank {
			continue
		}
		if ov := intersect(pl.need[dst], own); ov.len() > 0 {
			c.sendOwned(dst, x.Narrow(spatialAxis, ov.Lo-own.Lo, ov.len()))
		}
	}
	need := pl.need[rank]
	shape := x.Shape()
	shape[spatialAxis] = pl.padLo[rank] + need.len() + pl.padHi[rank]
	if b := reuse(block, shape); b != block {
		block = b
		if pl.fill != 0 {
			block.Fill(pl.fill)
		}
	}
	for src := 0; src < p; src++ {
		ov := intersect(need, spanOf(pl.in[src]))
		if ov.len() == 0 {
			continue
		}
		piece, from := x, ov.Lo-own.Lo
		if src != rank {
			piece, from = c.Recv(src), 0
		}
		addRegion(block, piece, spatialAxis, pl.padLo[rank]+ov.Lo-need.Lo, from, ov.len(), true)
	}
	return block
}

// haloScatter is the backward counterpart of haloExchange: it ships the
// halo-row gradient contributions of dxBlock, a frame buffer, back to
// their owners as narrowed copies handed off (dxBlock is only read), and
// sums the incoming pieces and this PE's own rows, skipping the
// synthetic edge rows, into acc — the layer's sum of the last step,
// reallocated only when its shape changes — from zero in ascending PE
// order, so every replica reduces deterministically.
func haloScatter(c *Comm, dxBlock *tensor.Tensor, pl *layerPlan, acc *tensor.Tensor) *tensor.Tensor {
	rank, p := c.Rank(), c.Size()
	need := pl.need[rank]
	own := spanOf(pl.in[rank])
	for dst := 0; dst < p; dst++ {
		if dst == rank {
			continue
		}
		if ov := intersect(need, spanOf(pl.in[dst])); ov.len() > 0 {
			c.sendOwned(dst, dxBlock.Narrow(spatialAxis, pl.padLo[rank]+ov.Lo-need.Lo, ov.len()))
		}
	}
	shape := dxBlock.Shape()
	shape[spatialAxis] = own.len()
	acc = reuse(acc, shape)
	acc.Zero()
	for src := 0; src < p; src++ {
		ov := intersect(pl.need[src], own)
		if ov.len() == 0 {
			continue
		}
		piece, from := dxBlock, pl.padLo[rank]+ov.Lo-need.Lo
		if src != rank {
			piece, from = c.Recv(src), 0
		}
		addRegion(acc, piece, spatialAxis, ov.Lo-own.Lo, from, ov.len(), false)
	}
	return acc
}

// addRegion accumulates the n planes of src from srcStart along axis
// into dst's from dstStart — touching only the region's elements, not
// the whole slab — or, with set, copies them over. dst and src must
// agree on every dimension except axis.
func addRegion(dst, src *tensor.Tensor, axis, dstStart, srcStart, n int, set bool) {
	inner := 1
	for i := axis + 1; i < src.Rank(); i++ {
		inner *= src.Dim(i)
	}
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= src.Dim(i)
	}
	sd, dd := src.Data(), dst.Data()
	for o := 0; o < outer; o++ {
		d := dd[(o*dst.Dim(axis)+dstStart)*inner:][:n*inner]
		s := sd[(o*src.Dim(axis)+srcStart)*inner:][:n*inner]
		if set {
			copy(d, s)
			continue
		}
		for i, v := range s {
			d[i] += v
		}
	}
}

// reuse returns buf when it has the given shape, else a new tensor of
// that shape: a kept buffer is reallocated only when its shape changes.
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

// zeroAxis returns pad with the split-axis entry cleared: the halo block
// already carries the synthetic edge rows, so the kernel itself must not
// pad that axis again.
func zeroAxis(pad []int) []int {
	out := append([]int(nil), pad...)
	out[0] = 0
	return out
}

// dataSpatialEngine is the shared engine behind the spatial (p1=1) and
// data+spatial registry entries: a p1×p2 grid where each group
// spatially decomposes its own batch shard over p2 slabs, joined by
// world-wide trunk and segmented head gradient exchange.
//
// Spatial parallelism (§3.2): every PE owns a contiguous slab of the
// first spatial dimension of every activation, convolutions and
// poolings exchange halo rows with their neighbours, and the slabs are
// aggregated (Allgather) before the classifier head, which runs
// replicated — the aggregation point of §4.5.1. Trunk weight gradients
// are partial sums over each PE's output rows and are Allreduced before
// the identical SGD step; trunk batch norm is synchronized across
// slabs.
//
// The ds hybrid (§3.6) is the paper's CosmoFlow configuration (one
// sample per node, spatial within the node, Fig. 5): trunk convolution
// gradients are partial over each (group, slab) pair and allreduce
// across the whole world; the replicated classifier head's gradients
// allreduce across segments; trunk batch norm is synchronized
// world-wide. Every PE steps the full replica in lockstep, so each
// holds the whole canonical state.
func dataSpatialEngine(m *nn.Model, pl Plan, label string, cfg *runConfig) (*engine, error) {
	p2 := pl.P2
	fcStart := m.G()
	for l := range m.Layers {
		if m.Layers[l].Kind == nn.FC {
			fcStart = l
			break
		}
	}
	if fcStart == m.G() {
		return nil, fmt.Errorf("dist: spatial runtime requires a fully-connected head to aggregate into (model %q has none)", m.Name)
	}
	for l := range m.Layers {
		if m.Layers[l].Branch && l >= fcStart {
			return nil, fmt.Errorf("dist: %s aggregates slabs before the classifier head (§4.5.1), so residual blocks must close inside the trunk; branch layer %d (%s) sits in the head (layers %d..%d)",
				label, l, m.Layers[l].Name, fcStart, m.G()-1)
		}
	}
	limit := m.InputDims[0]
	for l := 0; l < fcStart; l++ {
		limit = min(limit, m.Layers[l].In[0], m.Layers[l].Out[0])
	}
	if p2 > limit {
		return nil, fmt.Errorf("dist: model %q supports spatial width <= %d (Table 3), got %d", m.Name, limit, p2)
	}
	// Shared read-only exchange plans for every windowed trunk layer;
	// slabs split within a group, so plans depend only on p2.
	plans := make([]*layerPlan, m.G())
	for l := 0; l < fcStart; l++ {
		spec := &m.Layers[l]
		if spec.Kind != nn.Conv && spec.Kind != nn.Pool {
			continue
		}
		lp, err := planLayer(spec, p2)
		if err != nil {
			return nil, err
		}
		plans[l] = lp
	}
	return &engine{build: func(pe *peCtx) (stepFunc, ownership, error) {
		f := newSpatialFrame(pe, cfg, plans, fcStart)
		return func(x *tensor.Tensor, labels []int, weight float64) float64 {
			return dataSpatialStep(f, x, labels, weight)
		}, f.own, nil
	}}, nil
}

// spatialFrame is what one PE of the data×spatial grid keeps from step
// to step, built once by the engine's build: the two exchangers, the
// ownership table and the shared halo plans, plus per layer the
// nn.LayerState every step reuses — a windowed trunk layer's applies its
// pads with the split axis zeroed, and its input is the halo block —
// and the halo scatter's sums.
type spatialFrame struct {
	pe             *peCtx
	exWorld, exSeg *gradExchanger
	own            ownership
	plans          []*layerPlan // nil for the head and element-wise layers
	fcStart        int
	states         []*nn.LayerState
	acc            []*tensor.Tensor // see haloScatter
}

// newSpatialFrame builds the frame of one PE. Two bucketed exchanges:
// trunk gradients sum over the whole world, head gradients over the
// segment; batch norm synchronizes over the same communicators, inside
// its layer op (the state's Sync, see peCtx.layerState), and every
// layer's gradients enter its exchanger by the one rule (take).
func newSpatialFrame(pe *peCtx, cfg *runConfig, plans []*layerPlan, fcStart int) *spatialFrame {
	g := len(plans)
	f := &spatialFrame{pe: pe, exWorld: newGradExchanger(pe.world, pe.step, cfg), exSeg: newGradExchanger(pe.seg, pe.step, cfg),
		own: wholeOwnership(pe.net), plans: plans, fcStart: fcStart,
		states: make([]*nn.LayerState, g), acc: make([]*tensor.Tensor, g)}
	for l := range f.states {
		ex, c := f.exchange(l)
		f.states[l] = pe.layerState(l, c)
		if plans[l] != nil {
			f.states[l].Pad = zeroAxis(pe.net.Model.Layers[l].Pad)
		}
		ex.adopt(f.states[l], &f.own[l])
	}
	return f
}

// exchange returns the exchanger layer l's gradients enter and the
// communicator its batch norm synchronizes over: the world's for the
// trunk, the segment's for the head.
func (f *spatialFrame) exchange(l int) (*gradExchanger, *Comm) {
	if l < f.fcStart {
		return f.exWorld, f.pe.world
	}
	return f.exSeg, f.pe.seg
}

// dataSpatialStep runs one SGD iteration of the data×spatial grid on
// this group's batch shard x, weighted n_g/B in the global loss. Halo
// exchange and slab aggregation stay inside the group; trunk batch norm
// synchronizes over the whole world, because the (group, slab) pairs
// tile the global batch × spatial domain exactly once. Both gradient
// exchanges are bucketed: head gradients enter exSeg as the head
// backward produces them (overlapping the whole trunk backward), trunk
// conv gradients enter exWorld layer by layer (overlapping the backward
// of the layers below); draining both is the pre-step barrier.
//
// Every layer runs through the frame's op (forward, backward), under
// tensorStep's ownership rule: the slab AllGather gets a copy of the
// frame's buffer (gatherShard), and the halo messages are copies handed
// off.
func dataSpatialStep(f *spatialFrame, x *tensor.Tensor, labels []int, weight float64) float64 {
	group, seg, net, tr := f.pe.group, f.pe.seg, f.pe.net, f.pe.tr
	layers := net.Model.Layers
	rank, p := group.Rank(), group.Size()
	gph := net.Graph()
	g := len(layers)
	inParts := strategy.PartitionDim(net.Model.InputDims[0], p)
	tr.Begin(trace.ComputeForward)

	// Partitioned trunk forward: halo-assembled windowed layers,
	// slab-local element-wise layers, world-synchronized batch norm.
	// The graph walk routes shortcut convolutions from their tap's slab
	// — partitioned identically, since slab ranges depend only on the
	// extent — runs halo exchange on the shortcut like any windowed
	// layer, and merges slab-aligned outputs into the main path.
	cur := gph.ForwardRange(0, f.fcStart, x.Narrow(spatialAxis, inParts[rank].Start, inParts[rank].Size()), f.forward)

	// Aggregate the group's slabs, then run the replicated head on the
	// group's batch shard (§4.5.1) — every PE of the group computes
	// identical logits and loss. Head batch norm sees only this group's
	// shard and synchronizes across the segment.
	tr.Begin(trace.CollectiveWait)
	cur = gatherShard(group, cur, spatialAxis)
	tr.Begin(trace.ComputeForward)
	cur = gph.ForwardRange(f.fcStart, g, cur, f.forward)
	loss, dy := tensor.SoftmaxCrossEntropy(cur, labels)
	if weight != 1 {
		dy.Scale(weight)
	}
	tr.Begin(trace.ComputeBackward)

	// Back into the trunk: keep only the gradient rows of this PE's
	// slab. The graph walk fans a merge point's slab gradient into both
	// the main path and the shortcut, whose halo-scattered input
	// gradient accumulates on the tap's slab (identical row partition).
	if dy = gph.BackwardRange(f.fcStart, g, dy, f.backward); dy != nil {
		bParts := strategy.PartitionDim(layers[f.fcStart].In[0], p)
		gph.BackwardRange(0, f.fcStart, dy.Narrow(spatialAxis, bParts[rank].Start, bParts[rank].Size()), f.backward)
	}

	// Gradient exchange barrier: trunk convolution gradients are partial
	// sums over this PE's (batch shard, output rows) block and were
	// pushed into the world-wide bucketed exchange above; head gradients
	// are identical within a group and were pushed into the segmented
	// one; sync-BN gradients are already global and were held. Draining
	// both waits every in-flight bucket and steps every parameter.
	f.exWorld.drain()
	f.exSeg.drain()
	return f.pe.globalLoss(seg, loss*weight)
}

// forward is layer l's forward op on this PE: the layer's op in its
// frame state — over the halo block for a windowed trunk layer.
func (f *spatialFrame) forward(l int, xin *tensor.Tensor) *tensor.Tensor {
	net, tr, st := f.pe.net, f.pe.tr, f.states[l]
	if pl := f.plans[l]; pl != nil {
		tr.Begin(trace.Halo)
		xin = haloExchange(f.pe.group, xin, pl, st.X)
		tr.Begin(trace.ComputeForward)
	}
	return net.ForwardInto(l, xin, st, net.Params[l])
}

// backward is forward's counterpart. A layer's gradients enter its
// exchanger after the op's last read of its weights — a synchronized
// BN's held, being already global (take). A layer
// with no consumer for its input gradient — the bottom layer, or a
// shortcut tapping the network input — skips the data backward and,
// windowed, its halo scatter, on every PE alike.
func (f *spatialFrame) backward(l int, dy *tensor.Tensor) *tensor.Tensor {
	net, tr, st := f.pe.net, f.pe.tr, f.states[l]
	gr := net.GradBuffers(l)
	dx := net.BackwardInto(l, dy, st, net.Params[l], gr, net.Graph().Src(l) >= 0)
	ex, _ := f.exchange(l)
	ex.take(st, &f.own[l], &gr)
	if pl := f.plans[l]; pl != nil && dx != nil {
		tr.Begin(trace.Halo)
		f.acc[l] = haloScatter(f.pe.group, dx, pl, f.acc[l])
		tr.Begin(trace.ComputeBackward)
		dx = f.acc[l]
	}
	return dx
}
