package core

import (
	"fmt"

	"paradl/internal/cluster"
	"paradl/internal/collective"
	"paradl/internal/nn"
	"paradl/internal/profile"
	"paradl/internal/strategy"
)

// Config is everything ParaDL knows beforehand (Fig. 2): the model, the
// dataset size, the machine, the empirical per-layer times, and the
// user's parallelization parameters.
type Config struct {
	Model *nn.Model
	Sys   *cluster.System
	Times *profile.LayerTimes

	// D is the dataset size (samples per epoch).
	D int64
	// B is the GLOBAL mini-batch per iteration. Under the paper's weak
	// scaling convention B = b·p for per-PE batch b.
	B int
	// P is the total number of PEs.
	P int

	// P1 and P2 split hybrid strategies into P1 data-parallel groups of
	// P2 model-parallel PEs (P = P1·P2). Zero values default P2 to the
	// node size, matching the paper's inter-node data mapping (§4.5.1).
	P1, P2 int

	// Segments is the pipeline segment count S (default 4).
	Segments int

	// Phi is the self-contention coefficient φ. Zero selects the
	// automatic estimate (GPUsPerNode/UplinksPerNode for segmented
	// exchanges, 1 otherwise).
	Phi float64

	// OptimizerExtraState is the number of persistent optimizer
	// variables per parameter beyond weight+gradient (0 for SGD, 2 for
	// ADAM — §5.3.3's "four variables per weight"). It inflates the
	// memory projection; the TIME effect enters through Times, which
	// should be profiled with profile.ProfileModelOpt for the same
	// optimizer.
	OptimizerExtraState int
}

// Breakdown holds per-epoch seconds by training phase (§2.1.1). The IO
// phase is excluded, as in the paper (§4.2).
type Breakdown struct {
	// Compute phases.
	FW float64 `json:"fw,omitempty"`
	BW float64 `json:"bw,omitempty"`
	WU float64 `json:"wu,omitempty"`
	// GE is the gradient-exchange Allreduce (data/spatial/hybrid).
	GE float64 `json:"ge,omitempty"`
	// FBComm is layer-wise forward/backward collective time
	// (filter/channel Allgather+Allreduce).
	FBComm float64 `json:"fb_comm,omitempty"`
	// Halo is the spatial neighbour exchange.
	Halo float64 `json:"halo,omitempty"`
	// PipeP2P is pipeline stage-to-stage activation passing.
	PipeP2P float64 `json:"pipe_p2p,omitempty"`
	// Scatter covers sample distribution inside spatial groups.
	Scatter float64 `json:"scatter,omitempty"`
}

// Comp returns total computation seconds per epoch.
func (b Breakdown) Comp() float64 { return b.FW + b.BW + b.WU }

// Comm returns total communication seconds per epoch.
func (b Breakdown) Comm() float64 { return b.GE + b.FBComm + b.Halo + b.PipeP2P + b.Scatter }

// Total returns computation plus communication.
func (b Breakdown) Total() float64 { return b.Comp() + b.Comm() }

// Scale multiplies every phase by f (e.g. epoch → iteration).
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		FW: b.FW * f, BW: b.BW * f, WU: b.WU * f,
		GE: b.GE * f, FBComm: b.FBComm * f, Halo: b.Halo * f,
		PipeP2P: b.PipeP2P * f, Scatter: b.Scatter * f,
	}
}

// Projection is the oracle's output for one (strategy, config) pair.
type Projection struct {
	Strategy Strategy
	Config   Config

	// Epoch is the per-epoch phase breakdown.
	Epoch Breakdown
	// MemoryPerPE is the practical per-PE requirement in bytes
	// (γ-scaled, Table 3).
	MemoryPerPE float64
	// MaxPE is the strategy's scaling limit for this model (Table 3
	// last column); 0 means unbounded by model shape.
	MaxPE int
	// Feasible is false when P exceeds MaxPE or memory exceeds the
	// device capacity.
	Feasible bool
	// Notes collects limitation/bottleneck annotations.
	Notes []string
}

// Iterations returns D/B.
func (p *Projection) Iterations() float64 { return float64(p.Config.D) / float64(p.Config.B) }

// Iter returns the per-iteration breakdown (what Fig. 3 plots).
func (p *Projection) Iter() Breakdown { return p.Epoch.Scale(1 / p.Iterations()) }

// WithCongestionFactor returns a copy of the projection whose
// communication phases are inflated by an empirically estimated
// congestion impact factor (§4.3: the clean-fabric baseline
// complemented to predict production shared-system behaviour).
func (p *Projection) WithCongestionFactor(factor float64) *Projection {
	if factor < 1 {
		factor = 1
	}
	out := *p
	out.Epoch.GE *= factor
	out.Epoch.FBComm *= factor
	out.Epoch.Halo *= factor
	out.Epoch.PipeP2P *= factor
	out.Epoch.Scatter *= factor
	out.Notes = append(append([]string(nil), p.Notes...),
		fmt.Sprintf("communication inflated by congestion impact factor %.2f", factor))
	return &out
}

// table3 places each strategy on its Table-3 row (strategy.Family): data
// and model say which grid axes its P PEs span — both for the hybrids,
// whose split comes from Config.P1/P2, neither for serial.
var table3 = [...]struct {
	family      strategy.Family
	data, model bool
}{
	Serial:       {strategy.Tensor, false, false},
	Data:         {strategy.Tensor, true, false},
	Filter:       {strategy.Tensor, false, true},
	Channel:      {strategy.Tensor, false, true},
	DataFilter:   {strategy.Tensor, true, true},
	Spatial:      {strategy.Spatial, false, true},
	DataSpatial:  {strategy.Spatial, true, true},
	Pipeline:     {strategy.Pipeline, false, true},
	DataPipeline: {strategy.Pipeline, true, true},
}

// Grid returns the Table-3 geometry of strategy s under a validated
// cfg, with the oracle's stage partition on the Pipeline row. It is the
// one row lookup under Project, MemoryPerPE and measure.Measure.
func Grid(cfg Config, s Strategy) strategy.Grid {
	row := table3[s]
	g := strategy.Grid{
		Family: row.family, P1: 1, P2: 1, B: cfg.B, S: cfg.Segments,
		Model: cfg.Model, Delta: cfg.Sys.BytesPerItem,
		Channel: s == Channel, Hierarchical: s == DataSpatial,
	}
	switch {
	case row.data && row.model:
		g.P1, g.P2 = cfg.P1, cfg.P2
	case row.data:
		g.P1 = cfg.P
	case row.model:
		g.P2 = cfg.P
	}
	if g.Family == strategy.Pipeline {
		g.Stages = PartitionPipeline(cfg.Times, g.P2)
	}
	return g
}

// Project evaluates the analytical model of Table 3 for one strategy.
func Project(cfg Config, s Strategy) (*Projection, error) {
	pr, _, err := projectBase(cfg, s)
	if err != nil {
		return nil, err
	}
	finish(pr.Config, pr)
	return pr, nil
}

// projectBase validates cfg and projects strategy s — time, memory and
// scaling limit — up to finish, which Project applies at once and an
// extension projection after amending the result.
func projectBase(cfg Config, s Strategy) (*Projection, strategy.Grid, error) {
	if err := Validate(&cfg, s); err != nil {
		return nil, strategy.Grid{}, err
	}
	pr := &Projection{Strategy: s, Config: cfg, Feasible: true}
	g := Grid(cfg, s)
	project(cfg, &g, pr)
	pr.MemoryPerPE = memoryBytes(cfg, float64(cfg.B), g.Shares(), g.Stages)
	return pr, g, nil
}

// project fills pr's epoch breakdown, scaling limit and limit notes
// from the row: compute from the shares, communication as the sum of
// the α–β closed forms over the row's Table-3 exchanges.
func project(cfg Config, g *strategy.Grid, pr *Projection) {
	// An epoch is d/b iterations. The Pipeline row is eq. 12–13 inside
	// one group, on its dataset share ⌊D/P1⌋ at its batch share; only
	// the cross-group gradient exchange counts global iterations.
	d, b := float64(cfg.D), float64(cfg.B)
	dg, bg := d, b
	if g.Family == strategy.Pipeline {
		dg, bg = float64(cfg.D/int64(g.P1)), float64(g.GroupBatch())
		var fw, bw, wu float64 // the bottleneck stage
		for _, st := range g.Stages {
			var f, w, u float64
			for l := st.Start; l < st.End; l++ {
				f += cfg.Times.FW[l]
				w += cfg.Times.BW[l]
				u += cfg.Times.WU[l]
			}
			fw, bw, wu = max(fw, f), max(bw, w), max(wu, u)
		}
		s := float64(g.S)
		slots := float64(g.P2) + s - 1 // p+S−1 stage slots, eq. 12
		pr.Epoch.FW = dg * slots / s * fw
		pr.Epoch.BW = dg * slots / s * bw
		pr.Epoch.WU = dg / bg * wu
	} else {
		p := float64(g.P1 * g.P2)
		pr.Epoch.FW = d / p * cfg.Times.SumFW()
		pr.Epoch.BW = d / p * cfg.Times.SumBW()
		pr.Epoch.WU = d / b / g.Shares().Weight * cfg.Times.SumWU()
	}

	// Per phase: Σ closed forms of one occurrence, then × occurrences per
	// epoch (a phase's exchanges all repeat alike).
	var sum, repeat [strategy.PhaseGather + 1]float64
	slowest := 0.0 // over the concurrent segments seen so far
	for x := range g.Exchanges {
		if !x.InTable3 {
			continue
		}
		slowest = max(slowest, closedForm(&cfg, pr.Strategy, &x))
		if x.Segment+1 == x.Segments {
			sum[x.Phase] += slowest
			repeat[x.Phase] = float64(x.Repeat)
			slowest = 0
		}
	}
	pr.Epoch.GE = d * repeat[strategy.PhaseGE] / b * sum[strategy.PhaseGE]
	pr.Epoch.FBComm = dg * repeat[strategy.PhaseFB] / bg * sum[strategy.PhaseFB]
	pr.Epoch.Halo = dg * repeat[strategy.PhaseHalo] / bg * sum[strategy.PhaseHalo]
	pr.Epoch.PipeP2P = dg * repeat[strategy.PhaseP2P] / bg * sum[strategy.PhaseP2P]

	// Table 3's last column: B groups on the data axis times the model
	// extent on the model axis, over the axes the strategy spans.
	row := table3[pr.Strategy]
	pr.MaxPE = 1
	if row.data {
		pr.MaxPE = cfg.B
	}
	if row.model {
		_, limit := g.ModelLimit()
		pr.MaxPE *= limit
	}
	// finish reports a pure strategy's limit as P > MaxPE; a hybrid's
	// binding axis is named here.
	if row.data && row.model {
		if lim := g.Limits(); lim != nil {
			pr.Feasible = false
			pr.Notes = append(pr.Notes, lim.Error())
		}
	}
}

// closedForm prices one exchange in the Hockney α–β model (§4.3), with
// the contention φ between concurrent segments dividing bandwidth.
func closedForm(cfg *Config, s Strategy, x *strategy.Exchange) float64 {
	hop := cfg.Sys.CollectiveAB(0, x.Span)
	if x.MPI {
		hop = cfg.Sys.MPIAB(0, x.Span)
	}
	ab := collective.AB{Alpha: hop.Alpha, Beta: hop.Beta}
	if x.Segments > 1 {
		phi := cfg.Phi
		if phi == 0 {
			phi = EstimatePhi(cfg.Sys, s, x.Segments)
		}
		ab = collective.WithContention(ab, phi)
	}
	switch x.Kind {
	case strategy.RingAllreduce:
		return collective.RingAllreduce(ab, x.Size, x.Bytes)
	case strategy.RingAllgather:
		return collective.RingAllgather(ab, x.Size, x.Bytes)
	case strategy.RingBoundary:
		return float64(3*(x.Size-1)) * collective.P2P(ab, x.Bytes)
	case strategy.Halo:
		return collective.HaloExchange(ab, x.Bytes)
	case strategy.P2P:
		return collective.P2P(ab, x.Bytes)
	default: // TreeReduce, TreeBcast
		return collective.Bcast(ab, x.Size, x.Bytes)
	}
}

// Validate is the one normaliser of a (Config, strategy) pair: it
// rejects incomplete or non-positive configs and fills, in place, the
// defaults every consumer must agree on — S = 4 pipeline segments and,
// for the hybrids, the P1×P2 grid (node-sized P2 when neither axis is
// given, the missing axis derived from P when one is). Project and
// measure.Measure both start here, so the oracle and the simulator can
// never evaluate different grids for one config.
func Validate(cfg *Config, s Strategy) error {
	if cfg.Model == nil || cfg.Sys == nil || cfg.Times == nil {
		return fmt.Errorf("core: config requires Model, Sys, and Times")
	}
	if s < 0 || int(s) >= len(table3) {
		return fmt.Errorf("core: cannot project strategy %v", s)
	}
	if cfg.D <= 0 || cfg.B <= 0 || cfg.P <= 0 {
		return fmt.Errorf("core: D=%d B=%d P=%d must be positive", cfg.D, cfg.B, cfg.P)
	}
	if cfg.P1 < 0 || cfg.P2 < 0 {
		return fmt.Errorf("core: P1=%d P2=%d must not be negative", cfg.P1, cfg.P2)
	}
	if len(cfg.Times.FW) != cfg.Model.G() {
		return fmt.Errorf("core: profile covers %d layers, model has %d", len(cfg.Times.FW), cfg.Model.G())
	}
	if cfg.Segments == 0 {
		cfg.Segments = 4
	}
	if cfg.Segments < 1 {
		return fmt.Errorf("core: pipeline segments %d < 1", cfg.Segments)
	}
	if s == DataFilter || s == DataSpatial || s == DataPipeline {
		if cfg.P1 == 0 && cfg.P2 == 0 {
			cfg.P2 = cfg.Sys.GPUsPerNode
			if cfg.P2 > cfg.P {
				cfg.P2 = cfg.P
			}
			cfg.P1 = cfg.P / cfg.P2
		}
		// One axis given: derive the other from P (e.g. P=64, P2=4 is a
		// 16×4 grid).
		if cfg.P1 > 0 && cfg.P2 == 0 {
			if cfg.P%cfg.P1 != 0 {
				return fmt.Errorf("core: P1=%d does not divide P=%d", cfg.P1, cfg.P)
			}
			cfg.P2 = cfg.P / cfg.P1
		}
		if cfg.P2 > 0 && cfg.P1 == 0 {
			if cfg.P%cfg.P2 != 0 {
				return fmt.Errorf("core: P2=%d does not divide P=%d", cfg.P2, cfg.P)
			}
			cfg.P1 = cfg.P / cfg.P2
		}
		if cfg.P1*cfg.P2 != cfg.P {
			return fmt.Errorf("core: P1·P2 = %d·%d ≠ P = %d", cfg.P1, cfg.P2, cfg.P)
		}
	}
	return nil
}

// EstimatePhi returns the automatic self-contention coefficient φ
// (§4.3): for segmented exchanges (Data+Filter and Data+Pipeline, whose
// p2 concurrent per-shard Allreduces share the node's UplinksPerNode
// HCAs), φ = p2/uplinks; otherwise 1.
func EstimatePhi(sys *cluster.System, s Strategy, segments int) float64 {
	if s != DataFilter && s != DataPipeline {
		return 1
	}
	phi := float64(segments) / float64(sys.UplinksPerNode)
	if phi < 1 {
		return 1
	}
	return phi
}

// finish applies the scaling limit and the memory bound to a projection
// whose MaxPE and MemoryPerPE are set, writing the notes once for the
// base strategies and the extension projections alike.
func finish(cfg Config, pr *Projection) {
	if pr.MaxPE > 0 && cfg.P > pr.MaxPE && pr.Strategy != Serial {
		pr.Feasible = false
		pr.Notes = append(pr.Notes, fmt.Sprintf("P=%d exceeds the %v scaling limit %d", cfg.P, pr.Strategy, pr.MaxPE))
	}
	if pr.MemoryPerPE > cfg.Sys.GPU.MemBytes {
		pr.Feasible = false
		pr.Notes = append(pr.Notes, fmt.Sprintf("memory %.1f GB exceeds device capacity %.1f GB",
			pr.MemoryPerPE/1e9, cfg.Sys.GPU.MemBytes/1e9))
	}
}
