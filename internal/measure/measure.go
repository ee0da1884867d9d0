// Package measure is the reproduction's stand-in for the paper's
// empirical runs: it executes each parallel strategy's per-iteration
// schedule against the calibrated device model (internal/profile) and
// the flow-level network simulator (internal/simnet), pricing the
// ACTUAL per-GPU work rather than the oracle's idealized 1/p division.
//
// The gap between this package and internal/core is therefore exactly
// the gap the paper measures between ParaDL and reality:
//
//   - shrunken per-GPU kernels lose efficiency (filter/channel conv
//     scaling, Fig. 8),
//   - split/concat and tensor-rearrangement overheads are charged
//     (Fig. 8 "implementation overheads"),
//   - the FC head of the spatial strategy is computed redundantly on
//     every PE (§4.5.1) and an extra Allgather collects activations,
//   - halo exchange rides the slower MPI/PCIe path (§5.3.1), and
//   - concurrent collectives contend for shared links on the simulated
//     fabric instead of obeying a closed-form φ.
//
// Measure starts from core.Validate, the oracle's own normaliser, so
// both sides always evaluate the same grid and segment count; Compare
// returns the (projection, measurement) pair for one config and is what
// every measured-vs-projected cell is built from — report.evalCell for
// the paper's figures, workload.Replayer.Replay (the one join that also
// runs the plan for real) for the scoreboard, the overhead table and
// PHASES.json. The package knows nothing of the runtime: plans reach it
// as configs (dist.Plan.Apply).
package measure

import (
	"fmt"
	"math"

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

// runOps measures a set of concurrent one-round collective ops and
// multiplies each elapsed time by its step count.
func (e *Engine) runOps(ops []*collective.Op, steps []int) []float64 {
	sim, _ := e.newSim()
	els := collective.RunConcurrent(sim, e.Topo, ops)
	for i := range els {
		els[i] *= float64(steps[i])
	}
	return els
}

// runOp measures a single full op (small schedules: halo, p2p, bcast).
func (e *Engine) runOp(op *collective.Op) float64 {
	sim, _ := e.newSim()
	return collective.Run(sim, e.Topo, op)
}

// Measure runs one strategy under cfg and returns the per-iteration
// breakdown. Config semantics match core.Project (weak scaling for
// data/spatial/hybrids, strong scaling for filter/channel, global B).
func Measure(e *Engine, cfg core.Config, s core.Strategy) (*Result, error) {
	if err := core.Validate(&cfg, s); err != nil {
		return nil, err
	}
	r := &Result{Strategy: s, Config: cfg}
	var err error
	switch s {
	case core.Serial:
		r.Iter, err = e.measureSerial(cfg)
	case core.Data:
		r.Iter, err = e.measureData(cfg)
	case core.Spatial:
		r.Iter, err = e.measureSpatial(cfg)
	case core.Filter:
		r.Iter, err = e.measureFilterChannel(cfg, false)
	case core.Channel:
		r.Iter, err = e.measureFilterChannel(cfg, true)
	case core.DataFilter:
		r.Iter, err = e.measureDataFilter(cfg)
	case core.DataSpatial:
		r.Iter, err = e.measureDataSpatial(cfg)
	case core.Pipeline:
		r.Iter, err = e.measurePipeline(cfg)
	case core.DataPipeline:
		r.Iter, err = e.measureDataPipeline(cfg)
	default:
		err = fmt.Errorf("measure: unsupported strategy %v", s)
	}
	if err != nil {
		return nil, err
	}
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

func (e *Engine) measureSerial(cfg core.Config) (core.Breakdown, error) {
	var b core.Breakdown
	for i := range cfg.Model.Layers {
		l := &cfg.Model.Layers[i]
		b.FW += e.Dev.LayerFW(l, cfg.B, 1)
		b.BW += e.Dev.LayerBW(l, cfg.B, 1)
		b.WU += e.Dev.LayerWU(l, 1)
	}
	return b, nil
}

// measureData: weak scaling, per-PE batch B/p, full model replica,
// ring Allreduce of all weight gradients.
func (e *Engine) measureData(cfg core.Config) (core.Breakdown, error) {
	var b core.Breakdown
	micro := cfg.B / cfg.P
	if micro < 1 {
		return b, fmt.Errorf("measure: data parallelism needs B≥P (B=%d, P=%d)", cfg.B, cfg.P)
	}
	for i := range cfg.Model.Layers {
		l := &cfg.Model.Layers[i]
		b.FW += e.Dev.LayerFW(l, micro, 1)
		b.BW += e.Dev.LayerBW(l, micro, 1)
		b.WU += e.Dev.LayerWU(l, 1)
	}
	if cfg.P > 1 {
		m := float64(cfg.Model.TotalWeights()) * cfg.Sys.BytesPerItem
		op, steps := collective.RingRound("allreduce", strategy.AllPEs(cfg.P), m/float64(cfg.P), false)
		b.GE = e.runOps([]*collective.Op{op}, []int{steps})[0]
	}
	return b, nil
}

// measureSpatial: every PE works on the full batch over 1/p of the
// spatial extent; FC head replicated; halo over MPI; final Allgatherv
// before the head; gradient Allreduce.
func (e *Engine) measureSpatial(cfg core.Config) (core.Breakdown, error) {
	return e.spatialGroup(cfg, strategy.AllPEs(cfg.P), cfg.B, true)
}

// spatialGroup prices one spatial group of PEs processing batch samples
// jointly; withGE adds the global gradient exchange over all PEs.
func (e *Engine) spatialGroup(cfg core.Config, pes []int, batch int, withGE bool) (core.Breakdown, error) {
	var b core.Breakdown
	p := len(pes)
	if lim := cfg.Model.MinSpatial(); p > lim {
		return b, fmt.Errorf("measure: spatial p=%d exceeds extent limit %d", p, lim)
	}
	frac := 1.0 / float64(p)
	var haloTotal float64
	var lastTrunk *nn.Layer
	for i := range cfg.Model.Layers {
		l := &cfg.Model.Layers[i]
		if l.Kind == nn.FC {
			// Replicated head: full compute on every PE (§4.5.1).
			b.FW += e.Dev.LayerFW(l, batch, 1)
			b.BW += e.Dev.LayerBW(l, batch, 1)
			b.WU += e.Dev.LayerWU(l, 1)
			continue
		}
		lastTrunk = l
		b.FW += e.Dev.LayerFW(l, batch, frac)
		b.BW += e.Dev.LayerBW(l, batch, frac)
		b.WU += e.Dev.LayerWU(l, 1)
		if halo := l.HaloSize(0, p) + l.HaloSizeOut(0, p); halo > 0 && p > 1 {
			bytes := float64(batch) * float64(halo) * cfg.Sys.BytesPerItem
			haloTotal += e.runOp(collective.HaloExchangeOp(pes, bytes, true))
		}
	}
	b.Halo = haloTotal
	// Allgatherv collecting the trunk output before the replicated head
	// (over MPI: NCCL lacks Allgatherv, §5.1).
	if lastTrunk != nil && p > 1 {
		chunk := float64(batch) * float64(lastTrunk.OutSize()) / float64(p) * cfg.Sys.BytesPerItem
		op, steps := collective.RingRound("allgather", pes, chunk, true)
		b.Scatter = e.runOps([]*collective.Op{op}, []int{steps})[0]
	}
	if withGE && cfg.P > 1 {
		m := float64(cfg.Model.TotalWeights()) * cfg.Sys.BytesPerItem
		op, steps := collective.RingRound("allreduce", strategy.AllPEs(cfg.P), m/float64(cfg.P), false)
		b.GE = e.runOps([]*collective.Op{op}, []int{steps})[0]
	}
	return b, nil
}

// measureFilterChannel: strong scaling; each PE holds F/p filters (or
// C/p channels), pays layer-wise collectives plus the split/concat
// framework overhead of Fig. 8.
func (e *Engine) measureFilterChannel(cfg core.Config, channel bool) (core.Breakdown, error) {
	var b core.Breakdown
	limit := cfg.Model.MinFilters()
	if channel {
		limit = cfg.Model.MinChannels()
	}
	if cfg.P > limit {
		return b, fmt.Errorf("measure: p=%d exceeds the model-shape limit %d", cfg.P, limit)
	}
	p := float64(cfg.P)
	frac := 1.0 / p
	pes := strategy.AllPEs(cfg.P)

	var ops []*collective.Op
	var steps []int
	for i := range cfg.Model.Layers {
		l := &cfg.Model.Layers[i]
		b.FW += e.Dev.LayerFW(l, cfg.B, frac)
		b.BW += e.Dev.LayerBW(l, cfg.B, frac)
		b.WU += e.Dev.LayerWU(l, frac)
		if cfg.P > 1 && i < cfg.Model.G()-1 {
			outBytes := float64(cfg.B) * float64(l.OutSize()) * cfg.Sys.BytesPerItem
			// Split/concat rearrangement: one extra elementwise pass over
			// the boundary activation in each direction (Fig. 8).
			b.FW += e.Dev.KernelTime(profile.ElementwiseClass, 0, outBytes)
			b.BW += e.Dev.KernelTime(profile.ElementwiseClass, 0, outBytes)
			if channel {
				// The channel implementation additionally re-scatters the
				// gathered activation into per-PE input shards from the
				// second layer on (§4.5.1), costing one more pass.
				b.FW += e.Dev.KernelTime(profile.ElementwiseClass, 0, outBytes)
			}
			// Forward Allgather (filter) or Allreduce (channel), and the
			// converse in backward — both 3(p−1) chunk-rounds total.
			agOp, agSteps := collective.RingRound("allgather", pes, outBytes/p, false)
			arOp, arSteps := collective.RingRound("allreduce", pes, outBytes/p, false)
			ops = append(ops, agOp, arOp)
			steps = append(steps, agSteps, arSteps)
		}
	}
	if len(ops) > 0 {
		// Layer collectives are serialized (layer l+1 cannot start before
		// l's Allgather), so measure sequentially.
		for i, op := range ops {
			b.FBComm += e.runOps([]*collective.Op{op}, []int{steps[i]})[0]
		}
	}
	return b, nil
}

// measureDataFilter: p1 groups (inter-node) × p2-way filter
// (intra-node), segmented gradient Allreduce with real link contention.
func (e *Engine) measureDataFilter(cfg core.Config) (core.Breakdown, error) {
	var b core.Breakdown
	if cfg.P1*cfg.P2 != cfg.P {
		return b, fmt.Errorf("measure: P1·P2=%d·%d ≠ P=%d", cfg.P1, cfg.P2, cfg.P)
	}
	if lim := cfg.Model.MinFilters(); cfg.P2 > lim {
		return b, fmt.Errorf("measure: P2=%d exceeds filter limit %d", cfg.P2, lim)
	}
	micro := cfg.B / cfg.P1
	if micro < 1 {
		return b, fmt.Errorf("measure: df needs B≥P1")
	}
	groups, segments, err := strategy.HybridGroups(cfg.P1, cfg.P2)
	if err != nil {
		return b, err
	}
	frac := 1.0 / float64(cfg.P2)

	for i := range cfg.Model.Layers {
		l := &cfg.Model.Layers[i]
		b.FW += e.Dev.LayerFW(l, micro, frac)
		b.BW += e.Dev.LayerBW(l, micro, frac)
		b.WU += e.Dev.LayerWU(l, frac)
		if cfg.P2 > 1 && i < cfg.Model.G()-1 {
			outBytes := float64(micro) * float64(l.OutSize()) * cfg.Sys.BytesPerItem
			b.FW += e.Dev.KernelTime(profile.ElementwiseClass, 0, outBytes)
			b.BW += e.Dev.KernelTime(profile.ElementwiseClass, 0, outBytes)
			// All groups run their intra-group collectives concurrently on
			// disjoint intra-node links; measuring group 0 suffices.
			agOp, agSteps := collective.RingRound("allgather", groups[0], outBytes/float64(cfg.P2), false)
			arOp, arSteps := collective.RingRound("allreduce", groups[0], outBytes/float64(cfg.P2), false)
			b.FBComm += e.runOps([]*collective.Op{agOp}, []int{agSteps})[0]
			b.FBComm += e.runOps([]*collective.Op{arOp}, []int{arSteps})[0]
		}
	}
	// Segmented Allreduce: p2 concurrent rings, one per weight shard,
	// sharing every node's uplink — the φ contention arises in the
	// fabric rather than by assumption.
	if cfg.P1 > 1 {
		shard := float64(cfg.Model.TotalWeights()) * cfg.Sys.BytesPerItem / float64(cfg.P2)
		ops := make([]*collective.Op, len(segments))
		steps := make([]int, len(segments))
		for k, seg := range segments {
			ops[k], steps[k] = collective.RingRound("allreduce", seg, shard/float64(cfg.P1), false)
		}
		els := e.runOps(ops, steps)
		for _, el := range els {
			if el > b.GE {
				b.GE = el
			}
		}
	}
	return b, nil
}

// measureDataSpatial: p1 groups × p2-way spatial (intra-node), halo
// over MPI, hierarchical leader Allreduce (§4.5.1).
func (e *Engine) measureDataSpatial(cfg core.Config) (core.Breakdown, error) {
	var b core.Breakdown
	if cfg.P1*cfg.P2 != cfg.P {
		return b, fmt.Errorf("measure: P1·P2=%d·%d ≠ P=%d", cfg.P1, cfg.P2, cfg.P)
	}
	micro := cfg.B / cfg.P1
	if micro < 1 {
		micro = 1
	}
	groups, _, err := strategy.HybridGroups(cfg.P1, cfg.P2)
	if err != nil {
		return b, err
	}
	// One spatial group's work (groups are symmetric; no GE inside).
	b, err = e.spatialGroup(cfg, groups[0], micro, false)
	if err != nil {
		return b, err
	}
	// Hierarchical gradient exchange: tree-reduce to the node leader,
	// ring Allreduce among leaders, tree-broadcast back.
	m := float64(cfg.Model.TotalWeights()) * cfg.Sys.BytesPerItem
	if cfg.P2 > 1 {
		leaders := make([]int, cfg.P1)
		for g := range groups {
			leaders[g] = groups[g][0]
		}
		b.GE += e.runOp(reverseBcast(groups[0], m))
		if cfg.P1 > 1 {
			op, steps := collective.RingRound("allreduce", leaders, m/float64(cfg.P1), false)
			b.GE += e.runOps([]*collective.Op{op}, []int{steps})[0]
		}
		b.GE += e.runOp(collective.BcastOp(groups[0], m))
	} else if cfg.P1 > 1 {
		op, steps := collective.RingRound("allreduce", strategy.AllPEs(cfg.P), m/float64(cfg.P), false)
		b.GE += e.runOps([]*collective.Op{op}, []int{steps})[0]
	}
	return b, nil
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

// measurePipeline: GPipe-style stages over the oracle's balanced
// partition; stage times priced per micro-batch on the device model,
// with (p+S−1) stage slots and boundary P2P transfers.
func (e *Engine) measurePipeline(cfg core.Config) (core.Breakdown, error) {
	var b core.Breakdown
	if cfg.P > cfg.Model.G() {
		return b, fmt.Errorf("measure: pipeline p=%d exceeds G=%d", cfg.P, cfg.Model.G())
	}
	times := profile.ProfileModel(e.Dev, cfg.Model, maxInt(1, cfg.B/cfg.Segments))
	groups := core.PartitionPipeline(times, cfg.P)
	s := cfg.Segments
	microB := maxInt(1, cfg.B/s)

	var maxFW, maxBW, maxWU float64
	var maxBoundaryBytes float64
	for gi, g := range groups {
		var fw, bw, wu float64
		for l := g.Start; l < g.End; l++ {
			ly := &cfg.Model.Layers[l]
			fw += e.Dev.LayerFW(ly, microB, 1)
			bw += e.Dev.LayerBW(ly, microB, 1)
			wu += e.Dev.LayerWU(ly, 1)
		}
		if fw > maxFW {
			maxFW = fw
		}
		if bw > maxBW {
			maxBW = bw
		}
		if wu > maxWU {
			maxWU = wu
		}
		if gi < len(groups)-1 {
			bytes := float64(microB) * float64(cfg.Model.Layers[g.End-1].OutSize()) * cfg.Sys.BytesPerItem
			if bytes > maxBoundaryBytes {
				maxBoundaryBytes = bytes
			}
		}
	}
	slots := float64(cfg.P + s - 1)
	b.FW = slots * maxFW
	b.BW = slots * maxBW
	b.WU = maxWU
	if cfg.P > 1 && maxBoundaryBytes > 0 {
		p2p := e.runOp(collective.P2POp(0, 1, maxBoundaryBytes, false))
		b.PipeP2P = 2 * float64(cfg.P+s-2) * p2p
	}
	return b, nil
}

// measureDataPipeline: GPipe pipelines of depth p2 inside each of p1
// data-parallel groups, each on its batch shard B/p1 (the §3.6 grid the
// runtime's dp engine executes). Intra-group stage P2P is measured on
// group 0 (groups run concurrently on disjoint links); the segmented
// cross-group exchange runs one ring per stage — p2 concurrent
// Allreduces of that stage's weights over the p1 groups — so the φ
// uplink contention arises in the fabric, as in measureDataFilter.
func (e *Engine) measureDataPipeline(cfg core.Config) (core.Breakdown, error) {
	var b core.Breakdown
	if cfg.P1*cfg.P2 != cfg.P {
		return b, fmt.Errorf("measure: P1·P2=%d·%d ≠ P=%d", cfg.P1, cfg.P2, cfg.P)
	}
	if cfg.P2 > cfg.Model.G() {
		return b, fmt.Errorf("measure: dp stage depth p2=%d exceeds G=%d", cfg.P2, cfg.Model.G())
	}
	bg := cfg.B / cfg.P1
	if bg < 1 {
		return b, fmt.Errorf("measure: dp needs B≥P1 (B=%d, P1=%d)", cfg.B, cfg.P1)
	}
	// One group's schedule IS the pure pipeline measurement at depth p2
	// on the batch shard (the p1=1 edge measures identically).
	stage := cfg
	stage.P = cfg.P2
	stage.B = bg
	b, err := e.measurePipeline(stage)
	if err != nil {
		return b, err
	}
	if cfg.P1 > 1 {
		// Same stage partition measurePipeline used for this workload.
		times := profile.ProfileModel(e.Dev, cfg.Model, maxInt(1, bg/cfg.Segments))
		groups := core.PartitionPipeline(times, cfg.P2)
		_, segments, err := strategy.HybridGroups(cfg.P1, cfg.P2)
		if err != nil {
			return b, err
		}
		ops := make([]*collective.Op, 0, len(segments))
		steps := make([]int, 0, len(segments))
		for k, seg := range segments {
			if k >= len(groups) {
				continue
			}
			shard := 0.0
			for l := groups[k].Start; l < groups[k].End; l++ {
				shard += float64(cfg.Model.Layers[l].WeightSize()) * cfg.Sys.BytesPerItem
			}
			if shard == 0 {
				continue
			}
			op, st := collective.RingRound("allreduce", seg, shard/float64(cfg.P1), false)
			ops = append(ops, op)
			steps = append(steps, st)
		}
		for _, el := range e.runOps(ops, steps) {
			b.GE = math.Max(b.GE, el)
		}
	}
	return b, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
