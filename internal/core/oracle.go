package core

import (
	"fmt"
	"math"

	"paradl/internal/cluster"
	"paradl/internal/collective"
	"paradl/internal/nn"
	"paradl/internal/profile"
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

// Project evaluates the analytical model of Table 3 for one strategy.
func Project(cfg Config, s Strategy) (*Projection, error) {
	if err := Validate(&cfg, s); err != nil {
		return nil, err
	}
	pr := &Projection{Strategy: s, Config: cfg, Feasible: true}
	switch s {
	case Serial:
		projectSerial(cfg, pr)
	case Data:
		projectData(cfg, pr)
	case Spatial:
		projectSpatial(cfg, pr)
	case Pipeline:
		projectPipeline(cfg, pr)
	case Filter, Channel:
		projectFilterChannel(cfg, s, pr)
	case DataFilter:
		projectDataFilter(cfg, pr)
	case DataSpatial:
		projectDataSpatial(cfg, pr)
	case DataPipeline:
		projectDataPipeline(cfg, pr)
	default:
		return nil, fmt.Errorf("core: cannot project strategy %v", s)
	}
	pr.MemoryPerPE = MemoryPerPE(cfg, s)
	finish(cfg, pr)
	return pr, nil
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
	if cfg.D <= 0 || cfg.B <= 0 || cfg.P <= 0 {
		return fmt.Errorf("core: D=%d B=%d P=%d must be positive", cfg.D, cfg.B, cfg.P)
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

// ab returns the α/β pair for a ring collective over a contiguous span
// of p PEs.
func ab(sys *cluster.System, p int) collective.AB {
	x := sys.CollectiveAB(0, p)
	return collective.AB{Alpha: x.Alpha, Beta: x.Beta}
}

// abMPI is the through-host pair (halo exchange path).
func abMPI(sys *cluster.System, p int) collective.AB {
	x := sys.MPIAB(0, p)
	return collective.AB{Alpha: x.Alpha, Beta: x.Beta}
}

// weightBytes returns δ·Σ|w_l| — the gradient-exchange message size.
func weightBytes(cfg Config) float64 {
	return float64(cfg.Model.TotalWeights()) * cfg.Sys.BytesPerItem
}

// ---- Serial (Appendix A.1, eq. 3) ----

func projectSerial(cfg Config, pr *Projection) {
	d := float64(cfg.D)
	iters := d / float64(cfg.B)
	pr.Epoch.FW = d * cfg.Times.SumFW()
	pr.Epoch.BW = d * cfg.Times.SumBW()
	pr.Epoch.WU = iters * cfg.Times.SumWU()
	pr.MaxPE = 1
}

// ---- Data parallelism (eq. 5–7) ----

func projectData(cfg Config, pr *Projection) {
	d := float64(cfg.D)
	p := float64(cfg.P)
	iters := d / float64(cfg.B)
	pr.Epoch.FW = d / p * cfg.Times.SumFW()
	pr.Epoch.BW = d / p * cfg.Times.SumBW()
	pr.Epoch.WU = iters * cfg.Times.SumWU()
	pr.Epoch.GE = iters * collective.RingAllreduce(ab(cfg.Sys, cfg.P), cfg.P, weightBytes(cfg))
	pr.MaxPE = cfg.B
}

// ---- Spatial parallelism (eq. 8–10) ----

func projectSpatial(cfg Config, pr *Projection) {
	d := float64(cfg.D)
	p := float64(cfg.P)
	iters := d / float64(cfg.B)
	pr.Epoch.FW = d / p * cfg.Times.SumFW()
	pr.Epoch.BW = d / p * cfg.Times.SumBW()
	pr.Epoch.WU = iters * cfg.Times.SumWU()
	pr.Epoch.GE = iters * collective.RingAllreduce(ab(cfg.Sys, cfg.P), cfg.P, weightBytes(cfg))
	pr.Epoch.Halo = iters * spatialHaloPerIter(cfg, cfg.P, cfg.B)
	pr.MaxPE = cfg.Model.MinSpatial()
}

// spatialHaloPerIter evaluates Σ_l (2α + B(halo(x_l)+halo(dy_l))δβ)
// over the MPI path (§5.1: halo exchange could not use NCCL).
func spatialHaloPerIter(cfg Config, p, b int) float64 {
	mpi := abMPI(cfg.Sys, p)
	t := 0.0
	for i := range cfg.Model.Layers {
		l := &cfg.Model.Layers[i]
		halo := l.HaloSize(0, p) + l.HaloSizeOut(0, p)
		if halo == 0 {
			continue
		}
		bytes := float64(b) * float64(halo) * cfg.Sys.BytesPerItem
		t += collective.HaloExchange(mpi, bytes)
	}
	return t
}

// ---- Pipeline parallelism (eq. 12–13) ----

func projectPipeline(cfg Config, pr *Projection) {
	d := float64(cfg.D)
	s := float64(cfg.Segments)
	iters := d / float64(cfg.B)
	groups := PartitionPipeline(cfg.Times, cfg.P)

	maxFW, maxBW, maxWU, maxBoundary := 0.0, 0.0, 0.0, 0.0
	for gi, g := range groups {
		var fw, bw, wu float64
		for l := g.Start; l < g.End; l++ {
			fw += cfg.Times.FW[l]
			bw += cfg.Times.BW[l]
			wu += cfg.Times.WU[l]
		}
		maxFW = math.Max(maxFW, fw)
		maxBW = math.Max(maxBW, bw)
		maxWU = math.Max(maxWU, wu)
		if gi < len(groups)-1 {
			out := float64(cfg.Model.Layers[g.End-1].OutSize())
			maxBoundary = math.Max(maxBoundary, out)
		}
	}
	stageAmp := float64(cfg.P) + s - 1
	pr.Epoch.FW = d * stageAmp / s * maxFW
	pr.Epoch.BW = d * stageAmp / s * maxBW
	pr.Epoch.WU = iters * maxWU

	// P2P: 2·D(p+S−2)/B · max(α + B/S·|y_Gi|δβ), eq. 13.
	x := ab(cfg.Sys, cfg.P)
	seg := float64(cfg.B) / s * maxBoundary * cfg.Sys.BytesPerItem
	pr.Epoch.PipeP2P = 2 * d * (float64(cfg.P) + s - 2) / float64(cfg.B) * collective.P2P(x, seg)
	pr.MaxPE = cfg.Model.G()
}

// ---- Filter / Channel parallelism (eq. 15–19) ----

func projectFilterChannel(cfg Config, s Strategy, pr *Projection) {
	d := float64(cfg.D)
	p := float64(cfg.P)
	iters := d / float64(cfg.B)
	pr.Epoch.FW = d / p * cfg.Times.SumFW()
	pr.Epoch.BW = d / p * cfg.Times.SumBW()
	// Weight update is sharded: each PE updates |w|/p (GE is skipped).
	pr.Epoch.WU = iters / p * cfg.Times.SumWU()

	// 3·D/B·(p−1)·Σ_{l<G}(α + B|y_l|/p·δβ): one Allgather (forward) and
	// one Allreduce (backward) per layer boundary.
	x := ab(cfg.Sys, cfg.P)
	comm := 0.0
	for i := 0; i < cfg.Model.G()-1; i++ {
		chunk := float64(cfg.B) * float64(cfg.Model.Layers[i].OutSize()) / p * cfg.Sys.BytesPerItem
		comm += 3 * (p - 1) * (x.Alpha + chunk*x.Beta)
	}
	pr.Epoch.FBComm = iters * comm

	if s == Filter {
		pr.MaxPE = cfg.Model.MinFilters()
	} else {
		pr.MaxPE = cfg.Model.MinChannels()
	}
}

// ---- Data+Filter hybrid (eq. 20–22) ----

func projectDataFilter(cfg Config, pr *Projection) {
	d := float64(cfg.D)
	p := float64(cfg.P)
	p2 := float64(cfg.P2)
	iters := d / float64(cfg.B)

	pr.Epoch.FW = d / p * cfg.Times.SumFW()
	pr.Epoch.BW = d / p * cfg.Times.SumBW()
	pr.Epoch.WU = iters / p2 * cfg.Times.SumWU()

	// Intra-group filter collectives on microbatch B/p1 with chunk
	// |y|/p2 → B|y|/p per Table 3.
	intra := ab(cfg.Sys, cfg.P2)
	comm := 0.0
	for i := 0; i < cfg.Model.G()-1; i++ {
		chunk := float64(cfg.B) * float64(cfg.Model.Layers[i].OutSize()) / p * cfg.Sys.BytesPerItem
		comm += 3 * (p2 - 1) * (intra.Alpha + chunk*intra.Beta)
	}
	pr.Epoch.FBComm = iters * comm

	// Inter-group segmented Allreduce of the weight shard Σ|w|/p2 among
	// p1 groups, with contention φ between the p2 concurrent segments.
	phi := cfg.Phi
	if phi == 0 {
		phi = EstimatePhi(cfg.Sys, DataFilter, cfg.P2)
	}
	inter := collective.WithContention(ab(cfg.Sys, cfg.P), phi)
	shard := weightBytes(cfg) / p2
	pr.Epoch.GE = iters * collective.RingAllreduce(inter, cfg.P1, shard)

	limit := cfg.Model.MinFilters()
	pr.MaxPE = cfg.B * limit
	if cfg.P2 > limit {
		pr.Feasible = false
		pr.Notes = append(pr.Notes, fmt.Sprintf("P2=%d exceeds filter limit %d", cfg.P2, limit))
	}
}

// ---- Data+Spatial hybrid (§4.5.1, §5.3.1) ----

func projectDataSpatial(cfg Config, pr *Projection) {
	d := float64(cfg.D)
	p := float64(cfg.P)
	iters := d / float64(cfg.B)

	pr.Epoch.FW = d / p * cfg.Times.SumFW()
	pr.Epoch.BW = d / p * cfg.Times.SumBW()
	pr.Epoch.WU = iters * cfg.Times.SumWU()

	// Halo exchange inside each spatial group on microbatch B/p1.
	micro := cfg.B / cfg.P1
	if micro < 1 {
		micro = 1
	}
	pr.Epoch.Halo = iters * spatialHaloPerIter(cfg, cfg.P2, micro)

	// Hierarchical Allreduce (§5.3.1): tree-reduce to the node leader,
	// ring Allreduce among the p1 leaders, tree-broadcast back. The
	// local phases move the FULL buffer over NVLink, which is why the
	// paper measured ds gradient exchange at >2× plain data.
	m := weightBytes(cfg)
	local := ab(cfg.Sys, cfg.P2)
	leaders := ab(cfg.Sys, cfg.P)
	localRounds := math.Ceil(math.Log2(float64(cfg.P2)))
	localReduce := localRounds * (local.Alpha + m*local.Beta)
	localBcast := localRounds * (local.Alpha + m*local.Beta)
	global := collective.RingAllreduce(leaders, cfg.P1, m)
	pr.Epoch.GE = iters * (localReduce + global + localBcast)

	limit := cfg.Model.MinSpatial()
	pr.MaxPE = cfg.B * limit
	if cfg.P2 > limit {
		pr.Feasible = false
		pr.Notes = append(pr.Notes, fmt.Sprintf("P2=%d exceeds spatial limit %d", cfg.P2, limit))
	}
}

// ---- Data+Pipeline hybrid (no Table 3 entry; §3.6 composition) ----

// projectDataPipeline composes the pipeline model (eq. 12–13 applied
// inside each of the p1 data-parallel groups, on the group's batch
// shard B/p1) with a segmented cross-group gradient exchange: stage k
// of every group owns the same layers, so the p2 concurrent Allreduces
// — one per stage's weight shard, over the p1 groups — share each
// node's uplinks with contention φ, exactly like the df segmentation.
// This is the analytic counterpart of the runtime's dp engine
// (internal/dist dataPipelineEngine), which Table 3 never modeled.
func projectDataPipeline(cfg Config, pr *Projection) {
	// One group's workload IS the pure pipeline model: depth p2 on the
	// batch shard B/p1 over the dataset share D/p1 (iteration count and
	// P2P round count are ratios, so the rescale preserves eq. 12–13 —
	// the p1=1 edge is exactly projectPipeline, pinned by test).
	stage := cfg
	stage.P = cfg.P2
	stage.B = cfg.B / cfg.P1
	if stage.B < 1 {
		stage.B = 1
	}
	stage.D = cfg.D / int64(cfg.P1)
	projectPipeline(stage, pr)

	// Segmented cross-group exchange of the bottleneck stage's weights:
	// stage k of every group owns the same layers, so the p2 concurrent
	// per-stage Allreduces over the p1 groups share each node's uplinks
	// with contention φ, exactly like the df segmentation.
	if cfg.P1 > 1 {
		maxShardW := 0.0
		for _, g := range PartitionPipeline(cfg.Times, cfg.P2) {
			shardW := 0.0
			for l := g.Start; l < g.End; l++ {
				shardW += float64(cfg.Model.Layers[l].WeightSize())
			}
			maxShardW = math.Max(maxShardW, shardW)
		}
		phi := cfg.Phi
		if phi == 0 {
			phi = EstimatePhi(cfg.Sys, DataPipeline, cfg.P2)
		}
		inter := collective.WithContention(ab(cfg.Sys, cfg.P), phi)
		iters := float64(cfg.D) / float64(cfg.B)
		pr.Epoch.GE = iters * collective.RingAllreduce(inter, cfg.P1, maxShardW*cfg.Sys.BytesPerItem)
	}

	limit := cfg.Model.G()
	pr.MaxPE = cfg.B * limit
	if cfg.P2 > limit {
		pr.Feasible = false
		pr.Notes = append(pr.Notes, fmt.Sprintf("P2=%d exceeds the G=%d stage limit", cfg.P2, limit))
	}
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
