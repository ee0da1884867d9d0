// Package measure is the reproduction's stand-in for the paper's
// empirical runs: it executes a strategy's per-iteration schedule on the
// calibrated device model (internal/profile) and the flow-level network
// simulator (internal/simnet).
//
// It walks the same Table-3 row the oracle prices (strategy.Grid, looked
// up by core.Grid after core.Validate, the oracle's own normaliser): the
// row's limits decide feasibility, its exchanges become collective.Op
// schedules. What stays here is what a closed form cannot say — exactly
// the gap the paper measures between ParaDL and reality:
//
//   - shrunken per-GPU kernels lose efficiency: every layer is priced on
//     the device at its actual batch and kernel fraction (Fig. 8),
//   - split/concat and tensor-rearrangement passes are charged (Fig. 8
//     "implementation overheads"),
//   - the FC head of the spatial strategy is computed redundantly on
//     every PE (§4.5.1), and the Allgatherv before it — an exchange the
//     row marks as outside Table 3 — is run,
//   - concurrent collectives contend for shared links on the simulated
//     fabric instead of obeying a closed-form φ, and
//   - per-strategy framework efficiency and the distributed-loop
//     overhead inflate the result (Measure).
//
// Compare returns the (projection, measurement) pair for one config and
// is what every measured-vs-projected cell is built from —
// report.evalCell for the paper's figures, workload.Replayer.Replay (the
// one join that also runs the plan for real) for the scoreboard, the
// overhead table and PHASES.json. The package knows nothing of the
// runtime: plans reach it as configs (dist.Plan.Apply).
package measure

import (
	"fmt"

	"paradl/internal/cluster"
	"paradl/internal/collective"
	"paradl/internal/core"
	"paradl/internal/nn"
	"paradl/internal/profile"
	"paradl/internal/simnet"
	"paradl/internal/strategy"
)

// Result is one measured run: per-iteration phase breakdown plus the
// epoch scale factor.
type Result struct {
	Strategy core.Strategy
	Config   core.Config
	// Iter is the measured per-iteration breakdown.
	Iter core.Breakdown
}

// Epoch returns the per-epoch breakdown (D/B iterations).
func (r *Result) Epoch() core.Breakdown {
	iters := float64(r.Config.D) / float64(r.Config.B)
	return r.Iter.Scale(iters)
}

// Accuracy returns the paper's §5.2 metric for an oracle projection
// against this measurement: 1 − |projected − measured| / measured.
func (r *Result) Accuracy(pr *core.Projection) float64 {
	measured := r.Iter.Total()
	projected := pr.Iter().Total()
	if measured == 0 {
		return 0
	}
	diff := projected - measured
	if diff < 0 {
		diff = -diff
	}
	return 1 - diff/measured
}

// Compare evaluates one configuration on both analytic sides — the
// oracle's projection and the simulator's measurement of the same
// normalised config — the pair every measured-vs-projected cell holds
// (the Fig. 3/4 grids directly, the replayed scenarios of
// internal/workload next to a real run). The error names the side that
// rejected the config ("oracle: …" / "simulator: …").
func Compare(e *Engine, cfg core.Config, s core.Strategy) (*core.Projection, *Result, error) {
	pr, err := core.Project(cfg, s)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %w", err)
	}
	res, err := Measure(e, cfg, s)
	if err != nil {
		return nil, nil, fmt.Errorf("simulator: %w", err)
	}
	return pr, res, nil
}

// Engine owns the simulated fabric and device model.
type Engine struct {
	Sys  *cluster.System
	Dev  *profile.Device
	Topo *simnet.Topology

	// Background holds link IDs with persistent congestion traffic
	// (Fig. 6 studies); nil for clean runs.
	background []simnet.LinkID
}

// NewEngine builds a measurement engine for sys.
func NewEngine(sys *cluster.System) *Engine {
	return &Engine{
		Sys:  sys,
		Dev:  profile.NewDevice(sys.GPU),
		Topo: simnet.NewTopology(sys),
	}
}

// AddBackgroundOn marks links that carry external congestion traffic
// during communication measurement.
func (e *Engine) AddBackgroundOn(links ...simnet.LinkID) {
	e.background = append(e.background, links...)
}

// ClearBackground removes congestion.
func (e *Engine) ClearBackground() { e.background = nil }

// newSim builds a simulator, injecting one saturating background flow
// per registered congested link.
func (e *Engine) newSim() (*simnet.Sim, []simnet.FlowID) {
	sim := simnet.NewSim(e.Topo.Net)
	var bg []simnet.FlowID
	for _, l := range e.background {
		bg = append(bg, sim.Start([]simnet.LinkID{l}, 1e15))
	}
	return sim, bg
}

// runOps measures a set of concurrent ops on a fresh simulator and
// multiplies each elapsed time by its step count (RingRound's one
// representative round × the rounds of the full collective).
func (e *Engine) runOps(ops []*collective.Op, steps []int) []float64 {
	sim, _ := e.newSim()
	els := collective.RunConcurrent(sim, e.Topo, ops)
	for i := range els {
		els[i] *= float64(steps[i])
	}
	return els
}

// grid is the geometry Measure simulates: the oracle's own row lookup,
// dealing whole samples and — on the Pipeline row — partitioned by
// device times at the micro-batch a stage actually runs.
func (e *Engine) grid(cfg core.Config, s core.Strategy) strategy.Grid {
	g := core.Grid(cfg, s)
	g.Whole = true
	if g.Family == strategy.Pipeline {
		g.Stages = core.PartitionPipeline(profile.ProfileModel(e.Dev, cfg.Model, int(g.MicroBatch())), g.P2)
	}
	return g
}

// Measure runs one strategy under cfg and returns the per-iteration
// breakdown. Config semantics match core.Project (weak scaling for
// data/spatial/hybrids, strong scaling for filter/channel, global B).
func Measure(e *Engine, cfg core.Config, s core.Strategy) (*Result, error) {
	if err := core.Validate(&cfg, s); err != nil {
		return nil, err
	}
	g := e.grid(cfg, s)
	if lim := g.Limits(); lim != nil {
		return nil, fmt.Errorf("measure: %v: %w", s, lim)
	}
	r := &Result{Strategy: s, Config: cfg, Iter: e.simulate(&g)}
	// Framework friction: the paper repeatedly attributes oracle-vs-
	// measured gaps to implementation quality — the custom ChainerMNX
	// spatial/filter/channel layers, the leader-staged ds Allreduce, and
	// torchgpipe's bookkeeping are all less optimized than the mature
	// data-parallel path (§5.2, §5.3.3, Fig. 8). The calibrated
	// efficiency factors below inflate the measured forward/backward
	// times accordingly; data parallelism runs at full efficiency.
	f := FrameworkEfficiency(s)
	r.Iter.FW /= f
	r.Iter.BW /= f
	// Distributed-iteration overhead: the multi-node training loop adds
	// bookkeeping the single-GPU profiling path (which calibrated the
	// oracle's FW/BW inputs) never sees — optimizer hooks, communicator
	// setup, solution-fidelity checks (§5.2 lists these among the
	// factors that separate measured runs from projections). Serial runs
	// ARE the profiling path and take none of it.
	if s != core.Serial {
		over := distIterOverhead + distCompFrac*(r.Iter.FW+r.Iter.BW)
		r.Iter.FW += over / 2
		r.Iter.BW += over / 2
	}
	return r, nil
}

// Calibrated distributed-loop overhead: a fixed per-iteration cost plus
// a small fraction of compute.
const (
	distIterOverhead = 1e-3
	distCompFrac     = 0.02
)

// frameworkEfficiency calibrates the maturity of each strategy's
// implementation relative to the built-in data-parallel path.
var frameworkEfficiency = map[core.Strategy]float64{
	core.Serial:       1.0,
	core.Data:         1.0,
	core.Spatial:      0.90,
	core.Filter:       0.88,
	core.Channel:      0.82,
	core.DataFilter:   0.93,
	core.DataSpatial:  0.90,
	core.Pipeline:     0.90,
	core.DataPipeline: 0.90, // torchgpipe bookkeeping inside every group
}

// FrameworkEfficiency returns the calibrated implementation-efficiency
// factor Measure divides strategy s's forward/backward times by (1 for
// a strategy without an entry), so a breakdown that separates kernel
// time from framework friction (Fig. 8) reads the same table.
func FrameworkEfficiency(s core.Strategy) float64 {
	if f, ok := frameworkEfficiency[s]; ok {
		return f
	}
	return 1
}

// simulate is one iteration of the row on the device model and the
// fabric, before framework friction and loop overhead.
func (e *Engine) simulate(g *strategy.Grid) core.Breakdown {
	var b core.Breakdown
	if g.Family == strategy.Pipeline {
		b = e.stageCompute(g)
	} else {
		b = e.layerCompute(g)
	}
	e.exchange(g, &b)
	return b
}

// layerCompute prices the Tensor and Spatial rows' per-PE kernels on
// the device model: every layer at the group's batch, the row's kernel
// fraction and weight shard — the shrunken kernels lose efficiency —
// plus what only an implementation pays (Fig. 8).
func (e *Engine) layerCompute(g *strategy.Grid) core.Breakdown {
	var b core.Breakdown
	sh, batch, layers := g.Shares(), g.GroupBatch(), g.Model.Layers
	for i := range layers {
		l := &layers[i]
		frac := sh.Kernel
		if sh.ReplicatedHead && l.Kind == nn.FC {
			frac = 1 // full compute on every PE (§4.5.1)
		}
		b.FW += e.Dev.LayerFW(l, batch, frac)
		b.BW += e.Dev.LayerBW(l, batch, frac)
		b.WU += e.Dev.LayerWU(l, 1/sh.Weight)
		if g.Family == strategy.Tensor && g.P2 > 1 && i < len(layers)-1 {
			// Split/concat rearrangement: one extra elementwise pass over
			// the boundary activation in each direction.
			pass := e.Dev.KernelTime(profile.ElementwiseClass, 0, float64(batch)*float64(l.OutSize())*g.Delta)
			b.FW += pass
			b.BW += pass
			if g.Channel {
				// The channel implementation additionally re-scatters the
				// gathered activation into per-PE input shards from the
				// second layer on (§4.5.1), costing one more pass.
				b.FW += pass
			}
		}
	}
	return b
}

// stageCompute prices the Pipeline row GPipe-style: stage times per
// micro-batch on the device model, (p+S−1) slots of the slowest stage.
func (e *Engine) stageCompute(g *strategy.Grid) core.Breakdown {
	var fw, bw, wu float64 // the bottleneck stage
	micro := int(g.MicroBatch())
	for _, st := range g.Stages {
		var f, w, u float64
		for l := st.Start; l < st.End; l++ {
			ly := &g.Model.Layers[l]
			f += e.Dev.LayerFW(ly, micro, 1)
			w += e.Dev.LayerBW(ly, micro, 1)
			u += e.Dev.LayerWU(ly, 1)
		}
		fw, bw, wu = max(fw, f), max(bw, w), max(wu, u)
	}
	slots := float64(g.P2 + g.S - 1)
	return core.Breakdown{FW: slots * fw, BW: slots * bw, WU: wu}
}

// exchange runs the row's exchanges — Table 3's and the ones it has no
// term for — as flow schedules on the simulated fabric and adds each
// phase's time to b. Ring collectives simulate one representative round
// times the round count; concurrent segments share one simulator, so
// the φ contention arises in the fabric rather than by assumption, and
// the slowest counts; groups that run the same exchange on disjoint
// links are measured once.
func (e *Engine) exchange(g *strategy.Grid, b *core.Breakdown) {
	var t [strategy.PhaseGather + 1]float64
	var ops []*collective.Op
	var steps []int
	for x := range g.Exchanges {
		pes := x.PEs()
		ring := func(kind string, chunk float64) {
			op, n := collective.RingRound(kind, pes, chunk, x.MPI)
			ops, steps = append(ops, op), append(steps, n)
		}
		switch x.Kind {
		case strategy.RingAllreduce:
			ring("allreduce", x.Bytes/float64(x.Size))
		case strategy.RingAllgather:
			ring("allgather", x.Bytes)
		case strategy.RingBoundary:
			// Layer l+1 waits for l's Allgather: the two run in sequence.
			ring("allgather", x.Bytes)
			t[x.Phase] += e.runOps(ops, steps)[0]
			ops, steps = ops[:0], steps[:0]
			ring("allreduce", x.Bytes)
		case strategy.Halo:
			ops, steps = append(ops, collective.HaloExchangeOp(pes, x.Bytes, x.MPI)), append(steps, 1)
		case strategy.P2P:
			if x.Bytes > 0 {
				ops, steps = append(ops, collective.P2POp(pes[0], pes[1], x.Bytes, x.MPI)), append(steps, 1)
			}
		case strategy.TreeReduce:
			ops, steps = append(ops, reverseBcast(pes, x.Bytes)), append(steps, 1)
		case strategy.TreeBcast:
			ops, steps = append(ops, collective.BcastOp(pes, x.Bytes)), append(steps, 1)
		}
		if x.Segment+1 < x.Segments {
			continue // more concurrent segments follow
		}
		slowest := 0.0
		for _, el := range e.runOps(ops, steps) {
			slowest = max(slowest, el)
		}
		t[x.Phase] += float64(x.Repeat) * slowest
		ops, steps = ops[:0], steps[:0]
	}
	b.GE, b.FBComm, b.Halo = t[strategy.PhaseGE], t[strategy.PhaseFB], t[strategy.PhaseHalo]
	b.PipeP2P, b.Scatter = t[strategy.PhaseP2P], t[strategy.PhaseGather]
}

// reverseBcast builds the leader-rooted tree REDUCE of an m-byte buffer
// (the mirror image of BcastOp's rounds).
func reverseBcast(pes []int, m float64) *collective.Op {
	fwd := collective.BcastOp(pes, m)
	rev := &collective.Op{Name: "reduce"}
	for i := len(fwd.Rounds) - 1; i >= 0; i-- {
		round := make([]collective.FlowSpec, len(fwd.Rounds[i]))
		for j, f := range fwd.Rounds[i] {
			round[j] = collective.FlowSpec{Src: f.Dst, Dst: f.Src, Bytes: f.Bytes, MPI: f.MPI}
		}
		rev.Rounds = append(rev.Rounds, round)
	}
	return rev
}
