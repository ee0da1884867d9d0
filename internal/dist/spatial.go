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
// compute exactly its output shard. It is shared read-only by all PEs,
// so sender and receiver agree on every halo message without any
// negotiation round.
type layerPlan struct {
	in, out      []strategy.Range
	need         []rowSpan
	padLo, padHi []int
}

// planLayer derives the halo-exchange plan of layer l at width p. For a
// window of size k, stride s, padding pd, PE i's output rows [oS, oE)
// require global input rows [oS·s − pd, (oE−1)·s − pd + k); rows below 0
// or past the input extent are synthesized as edge padding, the rest are
// fetched from whoever owns them.
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

// haloExchange assembles this PE's windowed-layer input block: its own
// rows plus halo rows fetched point-to-point from the PEs owning them
// (§3.2), with padVal rows synthesized on the outer edges. padVal is 0
// for convolution and average pooling; max pooling uses −Inf because
// the sequential kernel skips padded positions, which a −Inf row can
// never beat.
func haloExchange(c *Comm, x *tensor.Tensor, pl *layerPlan, padVal float64) *tensor.Tensor {
	rank, p := c.Rank(), c.Size()
	own := spanOf(pl.in[rank])
	for dst := 0; dst < p; dst++ {
		if dst == rank {
			continue
		}
		if ov := intersect(pl.need[dst], own); ov.len() > 0 {
			// Narrow already snapshots the halo rows; hand that copy over
			// instead of paying Send's second deep copy.
			c.sendOwned(dst, x.Narrow(spatialAxis, ov.Lo-own.Lo, ov.len()))
		}
	}
	need := pl.need[rank]
	shape := x.Shape()
	shape[spatialAxis] = pl.padLo[rank] + need.len() + pl.padHi[rank]
	block := tensor.New(shape...)
	if padVal != 0 {
		block.Fill(padVal)
	}
	for src := 0; src < p; src++ {
		ov := intersect(need, spanOf(pl.in[src]))
		if ov.len() == 0 {
			continue
		}
		var piece *tensor.Tensor
		if src == rank {
			piece = x.Narrow(spatialAxis, ov.Lo-own.Lo, ov.len())
		} else {
			piece = c.Recv(src)
		}
		block.CopyInto(piece, spatialAxis, pl.padLo[rank]+ov.Lo-need.Lo)
	}
	return block
}

// haloScatter is the backward counterpart of haloExchange: it strips the
// synthetic padding off dxBlock, ships halo-row gradient contributions
// back to their owners, and accumulates incoming pieces in ascending PE
// order so every replica reduces deterministically.
func haloScatter(c *Comm, dxBlock *tensor.Tensor, pl *layerPlan) *tensor.Tensor {
	rank, p := c.Rank(), c.Size()
	need := pl.need[rank]
	real := dxBlock.Narrow(spatialAxis, pl.padLo[rank], need.len())
	own := spanOf(pl.in[rank])
	for dst := 0; dst < p; dst++ {
		if dst == rank {
			continue
		}
		if ov := intersect(need, spanOf(pl.in[dst])); ov.len() > 0 {
			c.sendOwned(dst, real.Narrow(spatialAxis, ov.Lo-need.Lo, ov.len()))
		}
	}
	shape := dxBlock.Shape()
	shape[spatialAxis] = own.len()
	acc := tensor.New(shape...)
	for src := 0; src < p; src++ {
		ov := intersect(pl.need[src], own)
		if ov.len() == 0 {
			continue
		}
		var piece *tensor.Tensor
		if src == rank {
			piece = real.Narrow(spatialAxis, ov.Lo-need.Lo, ov.len())
		} else {
			piece = c.Recv(src)
		}
		addRegion(acc, piece, spatialAxis, ov.Lo-own.Lo)
	}
	return acc
}

// addRegion accumulates src into dst at offset start along axis — the
// additive counterpart of Tensor.CopyInto, touching only the O(region)
// elements of the halo rows rather than the whole slab. dst and src
// must agree on every dimension except axis.
func addRegion(dst, src *tensor.Tensor, axis, start int) {
	inner := 1
	for i := axis + 1; i < src.Rank(); i++ {
		inner *= src.Dim(i)
	}
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= src.Dim(i)
	}
	srcAxis, dstAxis := src.Dim(axis), dst.Dim(axis)
	sd, dd := src.Data(), dst.Data()
	for o := 0; o < outer; o++ {
		srcBase := o * srcAxis * inner
		dstBase := (o*dstAxis + start) * inner
		for i := 0; i < srcAxis*inner; i++ {
			dd[dstBase+i] += sd[srcBase+i]
		}
	}
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
	plans := make([]*layerPlan, fcStart)
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
		// Two bucketed exchanges per PE: trunk conv gradients sum over
		// the whole world, head gradients over the segment.
		exWorld := newGradExchanger(pe.world, pe.step, cfg)
		exSeg := newGradExchanger(pe.seg, pe.step, cfg)
		own := wholeOwnership(pe.net)
		for l := range own {
			ex := exSeg
			if l < fcStart {
				ex = exWorld
			}
			ex.shard(&own[l][fieldW])
			ex.shard(&own[l][fieldB])
		}
		return func(x *tensor.Tensor, labels []int, weight float64) float64 {
			return dataSpatialStep(pe, exWorld, exSeg, own, x, labels, weight, plans, fcStart)
		}, own, nil
	}}, nil
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
func dataSpatialStep(pe *peCtx, exWorld, exSeg *gradExchanger, own ownership, x *tensor.Tensor, labels []int, weight float64, plans []*layerPlan, fcStart int) float64 {
	world, group, seg, net, step, tr := pe.world, pe.group, pe.seg, pe.net, pe.step, pe.tr
	model := net.Model
	rank, p := group.Rank(), group.Size()
	layers := model.Layers
	g := len(layers)

	inParts := strategy.PartitionDim(model.InputDims[0], p)
	gph := net.Graph()
	states := make([]*nn.LayerState, g)
	bnSync := make([]bool, g)
	tr.Begin(trace.ComputeForward)

	// Partitioned trunk forward: halo-assembled windowed layers,
	// slab-local element-wise layers, world-synchronized batch norm.
	// The graph walk routes shortcut convolutions from their tap's slab
	// — partitioned identically, since slab ranges depend only on the
	// extent — runs halo exchange on the shortcut like any windowed
	// layer, and merges slab-aligned outputs into the main path.
	cur := gph.ForwardRange(0, fcStart, x.Narrow(spatialAxis, inParts[rank].Start, inParts[rank].Size()),
		func(l int, xin *tensor.Tensor) *tensor.Tensor {
			spec := &layers[l]
			switch spec.Kind {
			case nn.Conv:
				tr.Begin(trace.Halo)
				block := haloExchange(group, xin, plans[l], 0)
				tr.Begin(trace.ComputeForward)
				cs := tensor.ConvSpec{Stride: spec.Stride, Pad: zeroAxis(spec.Pad)}
				states[l] = &nn.LayerState{X: block}
				return tensor.ConvForward(block, net.Params[l].W, net.Params[l].B, cs)
			case nn.Pool:
				padVal := 0.0
				if spec.PoolKind == tensor.MaxPool {
					padVal = math.Inf(-1)
				}
				tr.Begin(trace.Halo)
				block := haloExchange(group, xin, plans[l], padVal)
				tr.Begin(trace.ComputeForward)
				ps := tensor.PoolSpec{Kind: spec.PoolKind, Window: spec.Kernel, Stride: spec.Stride, Pad: zeroAxis(spec.Pad)}
				y, arg := tensor.PoolForward(block, ps)
				states[l] = &nn.LayerState{X: block, Argmax: arg}
				return y
			case nn.ReLU:
				states[l] = &nn.LayerState{X: xin}
				return tensor.ReLUForward(xin)
			case nn.BatchNorm:
				if world.Size() > 1 {
					tr.Begin(trace.BNSync)
					y, st := syncBNForward(world, xin, net.Params[l].Gamma, net.Params[l].Beta)
					tr.Begin(trace.ComputeForward)
					states[l] = &nn.LayerState{X: xin, BN: st}
					bnSync[l] = true
					return y
				}
				y, st := net.ForwardLayer(l, xin)
				states[l] = st
				return y
			default:
				panic(fmt.Sprintf("dist: layer kind %v in spatial trunk", spec.Kind))
			}
		})

	// Aggregate the group's slabs, then run the replicated head on the
	// group's batch shard (§4.5.1) — every PE of the group computes
	// identical logits and loss. Head batch norm sees only this group's
	// shard and synchronizes across the segment.
	tr.Begin(trace.CollectiveWait)
	cur = group.AllGather(cur, spatialAxis)
	tr.Begin(trace.ComputeForward)
	for l := fcStart; l < g; l++ {
		if layers[l].Kind == nn.BatchNorm && seg.Size() > 1 {
			tr.Begin(trace.BNSync)
			y, st := syncBNForward(seg, cur, net.Params[l].Gamma, net.Params[l].Beta)
			tr.Begin(trace.ComputeForward)
			states[l] = &nn.LayerState{X: cur, BN: st}
			bnSync[l] = true
			cur = y
			continue
		}
		cur, states[l] = net.ForwardLayer(l, cur)
	}
	loss, dy := tensor.SoftmaxCrossEntropy(cur, labels)
	if weight != 1 {
		dy.Scale(weight)
	}
	tr.Begin(trace.ComputeBackward)

	grads := make([]nn.Grads, g)
	for l := g - 1; l >= fcStart; l-- {
		if bnSync[l] {
			// Sync-BN gradients are already global: they bypass the
			// bucketed exchange, like the blocking path before it.
			tr.Begin(trace.BNSync)
			dx, dgamma, dbeta := syncBNBackward(seg, dy, net.Params[l].Gamma, states[l].BN)
			tr.Begin(trace.ComputeBackward)
			grads[l] = nn.Grads{Gamma: dgamma, Beta: dbeta}
			dy = dx
			continue
		}
		var gr nn.Grads
		dy, gr = net.BackwardLayer(l, dy, states[l])
		exSeg.pushGrads(&own[l], &gr)
	}

	// Back into the trunk: keep only the gradient rows of this PE's
	// slab. The graph walk fans a merge point's slab gradient into both
	// the main path and the shortcut, whose halo-scattered input
	// gradient accumulates on the tap's slab (identical row partition).
	bParts := strategy.PartitionDim(layers[fcStart].In[0], p)
	gph.BackwardRange(0, fcStart, dy.Narrow(spatialAxis, bParts[rank].Start, bParts[rank].Size()),
		func(l int, dy *tensor.Tensor) *tensor.Tensor {
			spec := &layers[l]
			switch spec.Kind {
			case nn.Conv:
				cs := tensor.ConvSpec{Stride: spec.Stride, Pad: zeroAxis(spec.Pad)}
				block := states[l].X
				dxBlock := tensor.ConvBackwardData(dy, net.Params[l].W, block.Shape(), cs)
				gr := net.GradBuffers(l)
				tensor.ConvBackwardWeightInto(gr.W, gr.B, dy, block, cs)
				exWorld.pushGrads(&own[l], &gr)
				tr.Begin(trace.Halo)
				out := haloScatter(group, dxBlock, plans[l])
				tr.Begin(trace.ComputeBackward)
				return out
			case nn.Pool:
				ps := tensor.PoolSpec{Kind: spec.PoolKind, Window: spec.Kernel, Stride: spec.Stride, Pad: zeroAxis(spec.Pad)}
				dxBlock := tensor.PoolBackward(dy, states[l].X.Shape(), ps, states[l].Argmax)
				tr.Begin(trace.Halo)
				out := haloScatter(group, dxBlock, plans[l])
				tr.Begin(trace.ComputeBackward)
				return out
			case nn.ReLU:
				return tensor.ReLUBackward(dy, states[l].X)
			case nn.BatchNorm:
				if bnSync[l] {
					tr.Begin(trace.BNSync)
					dx, dgamma, dbeta := syncBNBackward(world, dy, net.Params[l].Gamma, states[l].BN)
					tr.Begin(trace.ComputeBackward)
					grads[l] = nn.Grads{Gamma: dgamma, Beta: dbeta}
					return dx
				}
				dx, gr := net.BackwardLayer(l, dy, states[l])
				grads[l] = gr
				return dx
			default:
				panic(fmt.Sprintf("dist: layer kind %v in spatial trunk", spec.Kind))
			}
		})

	// Gradient exchange barrier: trunk convolution gradients are partial
	// sums over this PE's (batch shard, output rows) block and were
	// pushed into the world-wide bucketed exchange above; head gradients
	// are identical within a group and were pushed into the segmented
	// one. Draining both waits every in-flight bucket and steps what it
	// exchanged; grads holds what needs no exchange — sync-BN gradients
	// are already global — and stepNet applies it.
	exWorld.drain()
	exSeg.drain()
	step.stepNet(net, grads)
	tr.Begin(trace.CollectiveWait)
	global := seg.AllReduceScalar(loss * weight)
	tr.Begin(trace.ComputeBackward)
	return global
}
