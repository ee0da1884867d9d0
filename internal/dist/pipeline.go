package dist

import (
	"fmt"

	"paradl/internal/core"
	"paradl/internal/nn"
	"paradl/internal/profile"
	"paradl/internal/strategy"
	"paradl/internal/tensor"
	"paradl/internal/trace"
)

// dataPipelineEngine is the shared engine behind the pipeline (p1=1)
// and data+pipeline registry entries.
//
// Layer/pipeline parallelism (§3.3): the network is cut into p2
// contiguous stages, each held exclusively by one PE of the group, and
// a batch flows through as microbatches GPipe-style — all microbatches
// forward, then a backward flush in reverse order, then one local SGD
// step per stage. Activations and activation gradients are the only
// traffic within a group, point-to-point between neighbouring stages;
// weights are never exchanged because no two PEs of a group share a
// layer.
//
// Microbatch gradients are scaled by n_mb/B (the GLOBAL batch) before
// the backward pass, so their sum is exactly the group's contribution
// to the full-batch mean gradient. Per-iteration losses therefore match
// the sequential baseline up to summation reassociation for models
// without batch norm; BN statistics are per-microbatch per-group (the
// GPipe semantics), which is a genuine semantic deviation the
// correctness harness documents rather than hides.
//
// The dp hybrid is the §3.6 grid recipe applied to GPipe stages: each
// of p1 data-parallel groups pipelines its own batch shard through p2
// stages, and the p2 segmented cross-groups — {stage k of every group},
// which hold identical layer ranges — carry the data-parallel gradient
// exchange as a plain sum.
func dataPipelineEngine(m *nn.Model, pl Plan, label string, cfg *runConfig) (*engine, error) {
	g, p2 := m.G(), pl.P2
	if p2 > g {
		return nil, fmt.Errorf("dist: %s needs 1 <= p2 <= G=%d stages, got p2=%d", label, g, p2)
	}
	gph, err := nn.CompileGraph(m)
	if err != nil {
		return nil, err
	}
	bounds, err := legalStages(m, gph, p2, label)
	if err != nil {
		return nil, err
	}
	stages := strategy.ContiguousStages(bounds)
	// Group 0's last stage reports: the first PE to own a global loss.
	return &engine{resultRank: p2 - 1, build: func(pe *peCtx) (stepFunc, ownership, error) {
		ex := newGradExchanger(pe.seg, pe.step, cfg)
		own := wholeOwnership(pe.net)
		for _, st := range stages {
			for l := st.Start; l < st.End; l++ {
				for f := range own[l] {
					own[l][f].how, own[l][f].stage = oneStage, st.PE
					if st.PE == pe.group.Rank() {
						ex.shard(&own[l][f])
					}
				}
			}
		}
		f := &pipelineFrame{pe: pe, ex: ex, own: own, stage: stages[pe.group.Rank()], rows: make([][]*nn.LayerState, p2), ends: make([]*tensor.Tensor, p2)}
		// The stage's gradient buffers and accumulators are allocated
		// here, not in its first flush: an earlier stage may still be
		// flushing iteration 1 after the last stage has reported it, and
		// no step past that report allocates anything parameter-sized.
		f.acc = make([]nn.Grads, f.stage.End-f.stage.Start)
		for i := range f.acc {
			f.acc[i] = gradsLike(pe.net.GradBuffers(f.stage.Start + i))
		}
		for mb := range f.rows {
			f.rows[mb] = make([]*nn.LayerState, len(f.acc))
			for i := range f.rows[mb] {
				f.rows[mb][i] = new(nn.LayerState)
			}
		}
		lastStage := pe.group.Rank() == p2-1
		return func(x *tensor.Tensor, labels []int, weight float64) float64 {
			loss := dataPipelineStep(f, x, labels, weight)
			if lastStage {
				// The last-stage segment sums the per-group weighted
				// losses into the global mean loss.
				loss = pe.globalLoss(pe.seg, loss)
			}
			return loss
		}, own, nil
	}}, nil
}

// balanceStages splits the G layers into p contiguous groups via the
// oracle's own bottleneck-minimizing pipeline partition (§5.3.3), with
// per-layer FW+BW FLOPs standing in for profiled times so the executed
// stage boundaries cannot drift from the projected ones.
func balanceStages(m *nn.Model, p int) []strategy.Range {
	g := m.G()
	times := &profile.LayerTimes{FW: make([]float64, g), BW: make([]float64, g)}
	for l := range m.Layers {
		times.FW[l] = float64(m.Layers[l].FwdFLOPs())
		times.BW[l] = float64(m.Layers[l].BwdFLOPs())
	}
	groups := core.PartitionPipeline(times, p)
	bounds := make([]strategy.Range, len(groups))
	for i, gr := range groups {
		bounds[i] = strategy.Range{Start: gr.Start, End: gr.End}
	}
	return bounds
}

// legalStages returns the executed stage partition: the FLOP-balanced
// bounds for chain models, and for residual models the same bounds
// with every boundary snapped to the nearest LEGAL cut — one that
// keeps each residual block's tap, shortcut, and merge inside one
// stage (nn.Graph.LegalCut), since only the chain activation crosses a
// stage boundary. When the model does not admit p-1 legal cuts the
// partition is genuinely unsupported and the error names the block a
// cut would sever.
func legalStages(m *nn.Model, gph *nn.Graph, p int, label string) ([]strategy.Range, error) {
	bounds := balanceStages(m, p)
	if !gph.HasBranches() || len(bounds) <= 1 {
		return bounds, nil
	}
	var legal []int
	for c := 1; c < m.G(); c++ {
		if gph.LegalCut(c) {
			legal = append(legal, c)
		}
	}
	need := len(bounds) - 1
	if len(legal) < need {
		var example error
		for c := 1; c < m.G() && example == nil; c++ {
			example = gph.CutViolation(c)
		}
		return nil, fmt.Errorf("dist: %s cannot split model %q into %d stages: only %d stage boundaries keep every residual block intact (%v)",
			label, m.Name, p, len(legal), example)
	}
	// Snap each balanced boundary to the nearest legal cut, keeping the
	// cuts strictly increasing (ties break toward the earlier cut);
	// feasibility-aware so later boundaries always have cuts left.
	cuts := make([]int, 0, need)
	lo := 0
	for i := 1; i <= need; i++ {
		hi := len(legal) - (need - i) // exclusive upper index bound + 1
		best := lo
		for j := lo + 1; j < hi; j++ {
			if abs(legal[j]-bounds[i].Start) < abs(legal[best]-bounds[i].Start) {
				best = j
			}
		}
		cuts = append(cuts, legal[best])
		lo = best + 1
	}
	out := make([]strategy.Range, len(bounds))
	prev := 0
	for i, c := range cuts {
		out[i] = strategy.Range{Start: prev, End: c}
		prev = c
	}
	out[len(out)-1] = strategy.Range{Start: prev, End: m.G()}
	return out, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// pipelineFrame is what one PE of the data×pipeline grid keeps from
// step to step, built once by the engine's build: the exchanger, the
// ownership table and the stage, the stage's gradient accumulator over
// a flush's micro-batches, and per micro-batch (at most p2 of them) one
// frame row — an nn.LayerState per stage layer — and the stage's output
// (the logits on the last stage).
type pipelineFrame struct {
	pe    *peCtx
	ex    *gradExchanger
	own   ownership
	stage strategy.PipelineStage
	acc   []nn.Grads
	rows  [][]*nn.LayerState
	ends  []*tensor.Tensor
}

// dataPipelineStep pushes this group's batch shard x (weighted n_g/B in
// the global loss) through the group's pipeline as microbatches,
// and exchanges the accumulated stage gradients (acc) across the
// segment, which steps this stage's layers. It returns the group's
// weighted shard loss on the last stage (0 elsewhere). The
// stage-gradient exchange is bucketed (ex): a layer's accumulated
// gradient is final once the LAST microbatch's backward has passed it,
// so it enters the segment exchange right there, overlapping the rest
// of the flush.
//
// Every layer runs through its op in micro-batch mb's frame row, and
// the stage outputs and input gradients travel as frame buffers under
// sendOwned's view contract: the receiver only reads them (a layer
// never writes its input or dy, and the graph walk clones a stage input
// before merging into it), and the sender rewrites y[mb] or dx[mb] only
// in its next step. It gets there only after the flush's message chain
// proves its neighbour done reading. Downstream, stage r+1 sends dx[mb]
// after the backward of mb's first stage layer, the last read of
// y_r[mb], and stage r receives every dx[mb] before its step ends.
// Upstream, stage r−1 reads dx_r[mb] within its step and only then
// sends the next step's first activation, which stage r awaits before
// any of its next backward.
func dataPipelineStep(f *pipelineFrame, x *tensor.Tensor, labels []int, weight float64) float64 {
	c, net, tr, st := f.pe.group, f.pe.net, f.pe.tr, f.stage
	rank, p := c.Rank(), c.Size()
	total := x.Dim(0)
	nm := min(p, total)
	sizes := tensor.SplitSizes(total, nm)
	offs := tensor.SplitOffsets(total, nm)

	// Forward: stream every microbatch through this stage's layers via
	// the stage-local graph walk — legalStages guarantees every shortcut
	// in the stage can resolve its tap locally (or to the stage input),
	// so residual blocks execute whole inside their stage.
	gph := net.Graph()
	tr.Begin(trace.ComputeForward)
	for mb := 0; mb < nm; mb++ {
		var xin *tensor.Tensor
		if rank == 0 {
			xin = samples(x, offs[mb], sizes[mb])
		} else {
			// Blocked on the upstream stage: bubble time on the trace
			// until the activation arrives.
			tr.Begin(trace.PipelineTransfer)
			xin = c.Recv(rank - 1)
			tr.Begin(trace.ComputeForward)
		}
		row := f.rows[mb]
		f.ends[mb] = gph.ForwardRange(st.Start, st.End, xin, func(l int, x2 *tensor.Tensor) *tensor.Tensor {
			return net.ForwardInto(l, x2, row[l-st.Start], net.Params[l])
		})
		if rank < p-1 {
			tr.Begin(trace.PipelineTransfer)
			c.sendOwned(rank+1, f.ends[mb])
			tr.Begin(trace.ComputeForward)
		}
	}

	// Backward flush in reverse microbatch order, accumulating this
	// stage's gradients across microbatches.
	tr.Begin(trace.ComputeBackward)
	loss := 0.0
	for mb := nm - 1; mb >= 0; mb-- {
		var dy *tensor.Tensor
		if rank == p-1 {
			lbl := labels[offs[mb] : offs[mb]+sizes[mb]]
			mbLoss, dl := tensor.SoftmaxCrossEntropy(f.ends[mb], lbl)
			mbWeight := weight * float64(sizes[mb]) / float64(total)
			loss += mbLoss * mbWeight
			dl.Scale(mbWeight)
			dy = dl
		} else {
			tr.Begin(trace.PipelineTransfer)
			dy = c.Recv(rank + 1)
			tr.Begin(trace.ComputeBackward)
		}
		row := f.rows[mb]
		dy = gph.BackwardRange(st.Start, st.End, dy, func(l int, d *tensor.Tensor) *tensor.Tensor {
			// The flush's first microbatch writes its gradients straight
			// into the accumulator, over what the last iteration left;
			// later ones write the layer's GradBuffers and add them.
			acc := &f.acc[l-st.Start]
			g := *acc
			if mb < nm-1 {
				g = net.GradBuffers(l)
			}
			// The network input's gradient (stage 0's bottom layer) is
			// skipped: no stage consumes it.
			dx := net.BackwardInto(l, d, row[l-st.Start], net.Params[l], g, gph.Src(l) >= 0)
			if mb < nm-1 {
				accumulateGrads(acc, g)
			}
			if mb == 0 {
				// The reverse-order flush visits microbatch 0 last, so
				// this layer's accumulation is complete: its exchange can
				// launch while the flush continues below it.
				f.ex.pushGrads(&f.own[l], acc)
			}
			return dx
		})
		if rank > 0 {
			tr.Begin(trace.PipelineTransfer)
			c.sendOwned(rank-1, dy)
			tr.Begin(trace.ComputeBackward)
		}
	}

	// Cross-group gradient exchange (§4.5.1, segmented): stage k of
	// every group owns the same layers, so segment k's buckets sum the
	// per-group contributions into the global mean gradient; drain is
	// the barrier, and steps the layers this stage owns exclusively
	// within the group. With p1=1 — pure pipeline — the segment is
	// singleton and there is no exchange at all, only the step.
	f.ex.drain()
	return loss
}
