package dist

import (
	"paradl/internal/nn"
	"paradl/internal/tensor"
	"paradl/internal/trace"
)

// peCtx is one PE's view of a run: its three communicators on the
// P1×P2 grid (see runGrid), its replica, its optimizer, and its tracer.
type peCtx struct {
	world, group, seg *Comm
	net               *nn.Network
	step              *stepper
	tr                *trace.PE
}

// layerState returns a fresh nn.LayerState for layer l, synchronized
// over c when l is a batch norm and c spans more than one PE: its BN
// sums the statistics and gradients of the batch c's PEs share, so they
// normalize with the whole batch's (§4.5.2).
func (pe *peCtx) layerState(l int, c *Comm) *nn.LayerState {
	if pe.net.Model.Layers[l].Kind != nn.BatchNorm || c.Size() == 1 {
		return new(nn.LayerState)
	}
	return &nn.LayerState{Sync: bnSync{c, pe.tr}}
}

// bnSync is a synchronized batch norm's tensor.BNSync: c's collectives,
// each traced as bn-sync within the caller's phase.
type bnSync struct {
	c  *Comm
	tr *trace.PE
}

func (s bnSync) AllReduceSum(t *tensor.Tensor) *tensor.Tensor {
	defer s.tr.Begin(s.tr.Begin(trace.BNSync))
	return s.c.AllReduceSum(t)
}

func (s bnSync) AllReduceScalar(v float64) float64 {
	defer s.tr.Begin(s.tr.Begin(trace.BNSync))
	return s.c.AllReduceScalar(v)
}

// globalLoss sums this PE's weighted loss v over c, whose PEs' batch
// shards tile the global batch, into the iteration's global loss. The
// sum is a collective-wait span only where c has more than one PE: over
// one PE it is v itself and nothing is waited for.
func (pe *peCtx) globalLoss(c *Comm, v float64) float64 {
	if c.Size() == 1 {
		return v
	}
	defer pe.tr.Begin(pe.tr.Begin(trace.CollectiveWait))
	return c.AllReduceScalar(v)
}

// stepFunc runs one training iteration — forward, backward with the
// strategy's exchanges, optimizer step — on this PE's share (x, labels)
// of the batch, weighted n_g/B in the global loss, and returns the
// iteration's global loss. Only the engine's result rank must return
// the real value; the driver reads no other PE's series.
type stepFunc func(x *tensor.Tensor, labels []int, weight float64) float64

// engine is everything one strategy contributes to a run. Its
// constructor (the registry entry) has already applied the strategy's
// Table 3 feasibility checks and computed whatever read-only plan the
// PEs share; build then runs once on every PE, carving that PE's shards
// out of its replica and returning the iteration closure together with
// the ownership table that says which slice of the canonical state the
// PE ended up holding. Everything else about a run — the loop, fault
// injection, hooks, checkpoints, tracing of the iteration frame — is
// drive's, written once.
type engine struct {
	// resultRank is the world rank whose loss series the run reports and
	// on which hooks fire and checkpoints assemble; it lies in group 0,
	// so it is that PE's group rank too.
	resultRank int
	build      func(pe *peCtx) (stepFunc, ownership, error)
}

// drive executes one validated plan: it spawns the P1×P2 world and
// runs, on every PE, replica (a copy of the checkpoint's parameters on
// resume, else of the seed's shared draw) → optimizer → engine build →
// velocity re-seed (on resume) → one engine step per batch → trace end.
// This is the only batch loop of the runtime; serial is its 1×1 world,
// run by the Tensor engine.
func drive(m *nn.Model, batches []Batch, pl Plan, cfg *runConfig) (*Result, error) {
	entry := registry[pl.Strategy]
	var eng *engine
	err := checkBatches(m, batches, pl.P1)
	if err == nil {
		eng, err = entry.engine(m, pl, entry.label, cfg)
	}
	if err != nil {
		// No PE exists yet: the plan was rejected, not run.
		return nil, &InfeasibleError{err}
	}
	losses, err := runGrid(pl.P1, pl.P2, eng.resultRank, func(world, group, seg *Comm) ([]float64, error) {
		net, err := cfg.replica(m)
		if err != nil {
			return nil, err
		}
		pe := &peCtx{world: world, group: group, seg: seg, net: net, step: newStepper(cfg), tr: cfg.trace.PE(world.Rank())}
		iterate, own, err := eng.build(pe)
		if err != nil {
			return nil, err
		}
		seedVelocities(cfg, pe.step.mom, group.Rank(), own)
		reports := world.Rank() == eng.resultRank
		tr := pe.tr
		out := make([]float64, 0, len(batches))
		for bi := range batches {
			tr.Iter(cfg.startIter + bi)
			// An injected straggle shows up on the trace as idle time.
			tr.Begin(trace.Idle)
			cfg.maybeFail(world.Rank(), bi)
			x, labels, weight := groupShard(&batches[bi], seg.Rank(), pl.P1)
			loss := iterate(x, labels, weight)
			out = append(out, loss)
			if reports {
				cfg.fire(bi, loss)
			}
			if cfg.snapshotDue(bi) {
				tr.Begin(trace.CheckpointPut)
				params, vel := gatherState(pe, eng.resultRank, own)
				if reports {
					cfg.emit(m.Name, bi, out, params, vel)
				}
				// Checkpoint barrier: no PE may start the next iteration
				// until the snapshot is durable, or a failure injected
				// just past the boundary could abort the world mid-gather
				// and lose the checkpoint recovery should resume from.
				world.AllReduceScalar(0)
			}
		}
		tr.End()
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Strategy: entry.label, P: pl.P1 * pl.P2, P1: pl.P1, P2: pl.P2, Losses: losses}, nil
}
