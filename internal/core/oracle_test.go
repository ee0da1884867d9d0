package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"paradl/internal/cluster"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/profile"
)

// testConfig builds a config for ResNet-50-like projection with weak
// scaling: B = b·P.
func testConfig(t testing.TB, m *nn.Model, p, perPE int) Config {
	t.Helper()
	sys := cluster.Default()
	dev := profile.NewDevice(sys.GPU)
	b := perPE * p
	return Config{
		Model: m,
		Sys:   sys,
		Times: profile.ProfileModel(dev, m, perPE),
		D:     model.ImageNetSamples,
		B:     b,
		P:     p,
	}
}

func TestSerialHasNoComm(t *testing.T) {
	cfg := testConfig(t, model.ResNet50(), 1, 32)
	pr, err := Project(cfg, Serial)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Epoch.Comm() != 0 {
		t.Fatalf("serial comm %g, want 0", pr.Epoch.Comm())
	}
	if pr.Epoch.Comp() <= 0 {
		t.Fatal("serial compute must be positive")
	}
}

func TestDataComputeScalesInversely(t *testing.T) {
	m := model.ResNet50()
	var prevFW float64
	for i, p := range []int{16, 32, 64} {
		cfg := testConfig(t, m, p, 32)
		pr, err := Project(cfg, Data)
		if err != nil {
			t.Fatal(err)
		}
		fw := pr.Epoch.FW
		if i > 0 {
			// per-epoch FW halves when p doubles (D fixed)
			if math.Abs(fw*2-prevFW) > prevFW*0.01 {
				t.Fatalf("FW did not halve: p=%d fw=%g prev=%g", p, fw, prevFW)
			}
		}
		prevFW = fw
	}
}

func TestDataDegeneratesToSerialAtP1(t *testing.T) {
	m := model.ResNet50()
	cfg := testConfig(t, m, 1, 32)
	serial, _ := Project(cfg, Serial)
	data, _ := Project(cfg, Data)
	if math.Abs(serial.Epoch.Comp()-data.Epoch.Comp()) > serial.Epoch.Comp()*1e-9 {
		t.Fatal("data parallelism at p=1 must equal serial compute")
	}
	if data.Epoch.GE != 0 {
		t.Fatal("no gradient exchange at p=1")
	}
}

func TestDataAllreduceGrowsWithModelSize(t *testing.T) {
	p := 64
	r50 := testConfig(t, model.ResNet50(), p, 32)
	vgg := testConfig(t, model.VGG16(), p, 32)
	pr50, _ := Project(r50, Data)
	prVGG, _ := Project(vgg, Data)
	ge50 := pr50.Iter().GE
	geVGG := prVGG.Iter().GE
	// VGG16 has ≈5× the parameters of ResNet-50.
	if geVGG < 3*ge50 {
		t.Fatalf("VGG16 GE %g should dwarf ResNet50 GE %g", geVGG, ge50)
	}
}

func TestSpatialAddsHalo(t *testing.T) {
	cfg := testConfig(t, model.ResNet50(), 16, 8)
	pr, err := Project(cfg, Spatial)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Epoch.Halo <= 0 {
		t.Fatal("spatial must pay halo exchange")
	}
	if pr.Epoch.GE <= 0 {
		t.Fatal("spatial still pays gradient exchange")
	}
}

func TestHaloSubstantialVsGE(t *testing.T) {
	// §5.3.1: for ResNet-50 at 128 GPUs the FB-Halo time is ≈60% of the
	// GE Allreduce — substantially higher than initially expected
	// because the framework uses MPI rather than NCCL. Reproduce the
	// paper's configuration (ds at 128 GPUs, b=32/GPU, spatial within
	// the node) and accept a broad band around the observation.
	cfg := testConfig(t, model.ResNet50(), 128, 32)
	cfg.P1, cfg.P2 = 32, 4
	pr, err := Project(cfg, DataSpatial)
	if err != nil {
		t.Fatal(err)
	}
	ratio := pr.Epoch.Halo / pr.Epoch.GE
	if ratio < 0.15 || ratio > 1.2 {
		t.Fatalf("halo/GE ratio %.2f outside the paper's observed regime (~0.6)", ratio)
	}
}

func TestHybridDerivesMissingGridAxis(t *testing.T) {
	// One grid axis given: validate derives the other from P (the CLI's
	// documented `-gpus 64 -p2 4` usage).
	cfg := testConfig(t, model.ResNet50(), 64, 8)
	cfg.P2 = 4
	pr, err := Project(cfg, DataSpatial)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Config.P1 != 16 || pr.Config.P2 != 4 {
		t.Fatalf("derived grid %d×%d, want 16×4", pr.Config.P1, pr.Config.P2)
	}
	cfg = testConfig(t, model.ResNet50(), 64, 8)
	cfg.P1 = 5 // does not divide 64: a diagnosis, not the opaque P1·P2 ≠ P
	if _, err := Project(cfg, DataFilter); err == nil || !strings.Contains(err.Error(), "divide") {
		t.Fatalf("want non-dividing axis error, got %v", err)
	}
}

func TestFilterChannelCommEqual(t *testing.T) {
	cfg := testConfig(t, model.VGG16(), 16, 2)
	f, _ := Project(cfg, Filter)
	c, _ := Project(cfg, Channel)
	// Table 3 gives identical comm formulas for filter and channel.
	if math.Abs(f.Epoch.FBComm-c.Epoch.FBComm) > f.Epoch.FBComm*1e-9 {
		t.Fatal("filter and channel comm must match analytically")
	}
	if math.Abs(f.Epoch.Comp()-c.Epoch.Comp()) > f.Epoch.Comp()*1e-9 {
		t.Fatal("filter and channel compute must match")
	}
}

func TestFilterWeightUpdateSharded(t *testing.T) {
	m := model.VGG16()
	cfg := testConfig(t, m, 16, 2)
	f, _ := Project(cfg, Filter)
	d, _ := Project(cfg, Data)
	if f.Epoch.WU >= d.Epoch.WU {
		t.Fatal("filter WU (sharded /p) must be below data WU")
	}
	if math.Abs(f.Epoch.WU*16-d.Epoch.WU) > d.Epoch.WU*0.01 {
		t.Fatalf("filter WU should be exactly WU/p: %g vs %g/16", f.Epoch.WU, d.Epoch.WU)
	}
}

func TestFilterCommExceedsDataAtB32(t *testing.T) {
	// §5.3.1: with batch ≥32/GPU on ImageNet models, filter/channel
	// layer-wise comm exceeds data parallelism's gradient exchange.
	m := model.ResNet50()
	p := 16
	cfg := testConfig(t, m, p, 32)
	f, _ := Project(cfg, Filter)
	d, _ := Project(cfg, Data)
	if f.Iter().Comm() <= d.Iter().Comm() {
		t.Fatalf("filter comm %g must exceed data comm %g at b=32",
			f.Iter().Comm(), d.Iter().Comm())
	}
}

func TestPipelineStageAmplification(t *testing.T) {
	m := model.VGG16()
	cfg := testConfig(t, m, 4, 8)
	cfg.Segments = 4
	pr, err := Project(cfg, Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	// With p=4, S=4: amplification (p+S−1)/S = 7/4 over the bottleneck
	// stage; compute must be positive and less than serial.
	serial, _ := Project(cfg, Serial)
	if pr.Epoch.Comp() <= 0 || pr.Epoch.Comp() >= serial.Epoch.Comp() {
		t.Fatalf("pipeline compute %g should be within (0, serial %g)", pr.Epoch.Comp(), serial.Epoch.Comp())
	}
	if pr.Epoch.PipeP2P <= 0 {
		t.Fatal("pipeline must pay P2P communication")
	}
}

func TestPipelineMoreSegmentsLessBubble(t *testing.T) {
	m := model.VGG16()
	cfg := testConfig(t, m, 4, 8)
	cfg.Segments = 2
	a, _ := Project(cfg, Pipeline)
	cfg.Segments = 8
	b, _ := Project(cfg, Pipeline)
	if b.Epoch.FW >= a.Epoch.FW {
		t.Fatalf("more segments must shrink the pipeline bubble: S=8 %g vs S=2 %g", b.Epoch.FW, a.Epoch.FW)
	}
}

func TestDataFilterCombinesBothComms(t *testing.T) {
	cfg := testConfig(t, model.ResNet50(), 64, 8)
	cfg.P1, cfg.P2 = 16, 4
	pr, err := Project(cfg, DataFilter)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Epoch.GE <= 0 || pr.Epoch.FBComm <= 0 {
		t.Fatalf("df needs both GE (%g) and FB comm (%g)", pr.Epoch.GE, pr.Epoch.FBComm)
	}
}

func TestDataFilterContentionDefault(t *testing.T) {
	sys := cluster.Default()
	phi := EstimatePhi(sys, DataFilter, sys.GPUsPerNode)
	if phi != 2 {
		t.Fatalf("φ = %g, want 2 (4 GPUs / 2 uplinks, §5.2)", phi)
	}
	if EstimatePhi(sys, Data, 4) != 1 {
		t.Fatal("non-segmented strategies have φ=1")
	}
}

func TestDataSpatialGEMoreThanTwiceData(t *testing.T) {
	// §5.3.1: the hierarchical ds Allreduce costs more than 2× the
	// plain data-parallel Allreduce.
	m := model.ResNet50()
	cfg := testConfig(t, m, 64, 8)
	cfg.P1, cfg.P2 = 16, 4
	ds, err := Project(cfg, DataSpatial)
	if err != nil {
		t.Fatal(err)
	}
	cfgD := testConfig(t, m, 64, 8)
	d, _ := Project(cfgD, Data)
	if ds.Epoch.GE <= 2*d.Epoch.GE*0.8 {
		t.Fatalf("ds GE %g should be ≳2× data GE %g", ds.Epoch.GE, d.Epoch.GE)
	}
}

func TestScalingLimits(t *testing.T) {
	// Filter/channel runs are STRONG scaling (Fig. 3 caption): the
	// global batch stays fixed as p grows.
	m := model.ResNet50() // min filters 64
	strong := func(p int) Config {
		cfg := testConfig(t, m, p, 1)
		cfg.B = 32
		return cfg
	}
	pr, _ := Project(strong(128), Filter)
	if pr.Feasible {
		t.Fatal("filter at p=128 exceeds the 64-filter limit and must be infeasible")
	}
	pr64, _ := Project(strong(64), Filter)
	if !pr64.Feasible {
		t.Fatalf("filter at p=64 should be feasible: %v", pr64.Notes)
	}
}

func TestCosmoFlowDataParallelOOM(t *testing.T) {
	// The paper: CosmoFlow's sample is so large that data parallelism
	// is not an option (Fig. 4/§5.3.2: the first conv layer at 4×512³
	// generates >10 GB of activations alone). At 512³, even one sample
	// per GPU blows past 16 GB; spreading a sample spatially across
	// GPUs (ds) restores feasibility.
	m := model.CosmoFlowAt(512)
	sys := cluster.Default()
	dev := profile.NewDevice(sys.GPU)
	cfg := Config{
		Model: m, Sys: sys,
		Times: profile.ProfileModel(dev, m, 1),
		D:     model.CosmoFlowSamples, B: 2, P: 2,
	}
	pr, err := Project(cfg, Data)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Feasible {
		t.Fatalf("CosmoFlow-512 data parallelism must be memory-infeasible (got %.1f GB)", pr.MemoryPerPE/1e9)
	}
	if bytes := float64(m.Layers[0].OutSize()) * sys.BytesPerItem; bytes < 8e9 {
		t.Fatalf("first conv activation %.1f GB, expected >8 GB at 512³", bytes/1e9)
	}
	// ds with one sample spread over 8 GPUs (the paper ran CosmoFlow at
	// 0.25 samples/GPU — less than one sample per device).
	ds := cfg
	ds.B, ds.P, ds.P1, ds.P2 = 1, 8, 1, 8
	prDS, err := Project(ds, DataSpatial)
	if err != nil {
		t.Fatal(err)
	}
	if !prDS.Feasible {
		t.Fatalf("CosmoFlow ds must be feasible: %v (%.1f GB)", prDS.Notes, prDS.MemoryPerPE/1e9)
	}
}

func TestMemoryOrdering(t *testing.T) {
	m := model.VGG16()
	cfg := testConfig(t, m, 16, 8)
	d, _ := Project(cfg, Data)
	f, _ := Project(cfg, Filter)
	s, _ := Project(cfg, Spatial)
	// Data replicates weights AND divides activations by p; filter
	// keeps all activations. For VGG16 at b=8, filter's replicated
	// activations dominate.
	if f.MemoryPerPE <= d.MemoryPerPE {
		t.Fatalf("filter memory %g should exceed data memory %g here", f.MemoryPerPE, d.MemoryPerPE)
	}
	if s.MemoryPerPE >= f.MemoryPerPE {
		t.Fatal("spatial divides activations; filter does not")
	}
}

func TestWeightUpdateShareVGG(t *testing.T) {
	// Fig. 7: weight update reaches ≈15% of compute for VGG16.
	cfg := testConfig(t, model.VGG16(), 16, 32)
	pr, _ := Project(cfg, Data)
	share := pr.Epoch.WU / pr.Epoch.Comp()
	if share < 0.05 || share > 0.35 {
		t.Fatalf("VGG16 WU share %.2f outside the paper's regime (~0.15)", share)
	}
	// ResNet-50 share must be smaller (fewer params per FLOP).
	cfgR := testConfig(t, model.ResNet50(), 16, 32)
	prR, _ := Project(cfgR, Data)
	if prR.Epoch.WU/prR.Epoch.Comp() >= share {
		t.Fatal("ResNet50 WU share should be below VGG16's")
	}
}

func TestProjectValidation(t *testing.T) {
	cfg := testConfig(t, model.ResNet50(), 16, 8)
	bad := cfg
	bad.B = 0
	if _, err := Project(bad, Data); err == nil {
		t.Fatal("B=0 must be rejected")
	}
	bad2 := cfg
	bad2.P1, bad2.P2 = 3, 5 // ≠ 16
	if _, err := Project(bad2, DataFilter); err == nil {
		t.Fatal("P1·P2≠P must be rejected")
	}
	// −4·−4 = 16 factors P, but is no grid: it used to project negative
	// WU and memory (df), GE = NaN (ds) and negative FW/BW (dp).
	for _, s := range []Strategy{DataFilter, DataSpatial, DataPipeline} {
		for _, axes := range [][2]int{{-4, -4}, {-4, 0}, {0, -4}} {
			neg := cfg
			neg.P1, neg.P2 = axes[0], axes[1]
			if pr, err := Project(neg, s); err == nil {
				t.Fatalf("%v on a %d×%d grid must be rejected, projected %+v", s, axes[0], axes[1], pr.Epoch)
			}
		}
	}
	if _, err := Project(cfg, Strategy(42)); err == nil {
		t.Fatal("an unknown strategy must be rejected")
	}
}

// Every planner request runs Project, so walking a row's exchanges must
// not allocate per layer: the counts are pinned at the per-strategy
// functions' (5 each before the rows: the Projection, its notes and
// their formatting), whatever the model's depth.
func TestProjectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	m := model.ResNet152()
	for _, c := range []struct {
		s            Strategy
		b, p, p1, p2 int
	}{{Data, 32 * 64, 64, 0, 0}, {Filter, 32, 64, 0, 0}, {DataFilter, 8 * 64, 64, 16, 4}} {
		cfg := NewConfig(m, cluster.Default(), model.ImageNetSamples, c.b, c.p, 0, nil)
		cfg.P1, cfg.P2 = c.p1, c.p2
		n := testing.AllocsPerRun(200, func() {
			if _, err := Project(cfg, c.s); err != nil {
				t.Fatal(err)
			}
		})
		if n > 5 {
			t.Errorf("Project(%v@%d) allocates %.0f times, want ≤ 5", c.s, c.p, n)
		}
	}
}

func TestHybridDefaultsToNodeSize(t *testing.T) {
	cfg := testConfig(t, model.ResNet50(), 64, 8)
	pr, err := Project(cfg, DataFilter)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Config.P2 != cluster.Default().GPUsPerNode {
		t.Fatalf("default P2 = %d, want node size", pr.Config.P2)
	}
}

// Property: per-iteration total time is positive and finite for all
// strategies across random scales.
func TestProjectionSanityProperty(t *testing.T) {
	m := model.ResNet50()
	sys := cluster.Default()
	dev := profile.NewDevice(sys.GPU)
	times := profile.ProfileModel(dev, m, 8)
	f := func(pRaw uint8, sRaw uint8) bool {
		p := 1 << (pRaw % 7) // 1..64
		s := Strategies()[int(sRaw)%len(Strategies())]
		cfg := Config{Model: m, Sys: sys, Times: times, D: 1 << 16, B: 8 * p, P: p}
		pr, err := Project(cfg, s)
		if err != nil {
			return false
		}
		tot := pr.Epoch.Total()
		return tot > 0 && !math.IsNaN(tot) && !math.IsInf(tot, 0) && pr.MemoryPerPE > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionPipelineBalanced(t *testing.T) {
	m := model.VGG16()
	sys := cluster.Default()
	times := profile.ProfileModel(profile.NewDevice(sys.GPU), m, 8)
	for _, p := range []int{2, 4, 8} {
		groups := PartitionPipeline(times, p)
		if len(groups) != p {
			t.Fatalf("p=%d: got %d groups", p, len(groups))
		}
		// coverage and contiguity
		if groups[0].Start != 0 || groups[len(groups)-1].End != m.G() {
			t.Fatalf("p=%d: groups do not cover the model", p)
		}
		for i := 1; i < len(groups); i++ {
			if groups[i].Start != groups[i-1].End {
				t.Fatalf("p=%d: gap between groups %d and %d", p, i-1, i)
			}
		}
		// bottleneck must beat the trivial all-in-one split / p … loosely
		bt := BottleneckTime(times, groups)
		totalT := times.SumFW() + times.SumBW()
		if bt > totalT {
			t.Fatalf("bottleneck %g exceeds total %g", bt, totalT)
		}
		if bt < totalT/float64(p)*0.99 {
			t.Fatalf("bottleneck %g below the perfect-balance lower bound %g", bt, totalT/float64(p))
		}
	}
}

func TestAdviseRanksFeasibleFirst(t *testing.T) {
	cfg := testConfig(t, model.ResNet50(), 128, 8)
	advs, err := Advise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != len(Strategies()) {
		t.Fatalf("advice count %d", len(advs))
	}
	seenInfeasible := false
	for _, a := range advs {
		if !a.Projection.Feasible {
			seenInfeasible = true
		} else if seenInfeasible {
			t.Fatal("feasible strategy ranked after infeasible one")
		}
	}
	best, err := Best(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best.Strategy != advs[0].Projection.Strategy {
		t.Fatal("Best must agree with the top-ranked advice")
	}
}

func TestDetectFindingsVGGWeightUpdate(t *testing.T) {
	cfg := testConfig(t, model.VGG16(), 16, 32)
	pr, _ := Project(cfg, Data)
	fs := DetectFindings(pr)
	found := false
	for _, f := range fs {
		if f.Remark == "Weight update" {
			found = true
			if f.Kind != Limitation {
				t.Fatal("weight update is a limitation, not a bottleneck")
			}
		}
	}
	if !found {
		t.Fatalf("VGG16 weight-update finding missing; got %+v", fs)
	}
}

func TestDetectFindingsScalingLimit(t *testing.T) {
	cfg := testConfig(t, model.ResNet50(), 64, 1)
	pr, _ := Project(cfg, Filter)
	found := false
	for _, f := range DetectFindings(pr) {
		if f.Category == "Scaling" {
			found = true
		}
	}
	if !found {
		t.Fatal("filter at its 64-PE limit must raise a scaling finding")
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip failed for %v: %v", s, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy must error")
	}
}

// TestProjectDataPipeline: the dp composition — pipeline inside each
// data-parallel group plus the segmented per-stage gradient exchange —
// must be projectable, feasible at a sane grid, and collapse to the
// pure pipeline model on its p1=1 edge (where no exchange remains).
func TestProjectDataPipeline(t *testing.T) {
	cfg := testConfig(t, model.ResNet50(), 64, 8)
	cfg.P1, cfg.P2 = 16, 4
	pr, err := Project(cfg, DataPipeline)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Feasible {
		t.Fatalf("dp 16×4 on ResNet-50 should be feasible: %v", pr.Notes)
	}
	if pr.Epoch.GE <= 0 || pr.Epoch.PipeP2P <= 0 || pr.Epoch.FW <= 0 {
		t.Fatalf("dp breakdown missing phases: %+v", pr.Epoch)
	}

	// p1=1 edge ≡ pure pipeline (same stages, no cross-group exchange).
	edge := testConfig(t, model.ResNet50(), 4, 8)
	edge.P1, edge.P2 = 1, 4
	dp, err := Project(edge, DataPipeline)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := Project(testConfig(t, model.ResNet50(), 4, 8), Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Epoch.GE != 0 {
		t.Fatalf("p1=1 edge must have no gradient exchange, got %g", dp.Epoch.GE)
	}
	if d := math.Abs(dp.Epoch.Total() - pure.Epoch.Total()); d > 1e-9*pure.Epoch.Total() {
		t.Fatalf("dp p1=1 edge total %g != pure pipeline %g", dp.Epoch.Total(), pure.Epoch.Total())
	}

	// Default node mapping derives the grid like the other hybrids.
	auto := testConfig(t, model.ResNet50(), 64, 8)
	prAuto, err := Project(auto, DataPipeline)
	if err != nil {
		t.Fatal(err)
	}
	if prAuto.Config.P1*prAuto.Config.P2 != 64 || prAuto.Config.P2 < 1 {
		t.Fatalf("default dp grid %d×%d", prAuto.Config.P1, prAuto.Config.P2)
	}

	// The stage-depth limit makes absurd grids infeasible.
	deep := testConfig(t, model.TinyCNN(), 16, 8)
	deep.P1, deep.P2 = 1, 16
	prDeep, err := Project(deep, DataPipeline)
	if err != nil {
		t.Fatal(err)
	}
	if prDeep.Feasible {
		t.Fatal("p2 > G must be infeasible")
	}

	// §5.3.3 "Workload Balancing": the hybrid scales past the pure
	// pipeline's G-stage cap — 16 PEs on the 7-layer toy net as 4 groups
	// of 4 stages — and the groups splitting the batch beats pipeline:4.
	wide := testConfig(t, model.TinyCNNNoBN(), 16, 4)
	wide.P1, wide.P2 = 4, 4
	prWide, err := Project(wide, DataPipeline)
	if err != nil {
		t.Fatal(err)
	}
	if !prWide.Feasible || prWide.Epoch.GE <= 0 {
		t.Fatalf("dp 4×4 over a 7-layer net must be feasible and pay a per-stage Allreduce: %+v %v", prWide.Epoch, prWide.Notes)
	}
	narrow := wide
	narrow.P, narrow.P1, narrow.P2 = 4, 0, 0
	prNarrow, err := Project(narrow, Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if prWide.Epoch.Comp() >= prNarrow.Epoch.Comp() {
		t.Fatalf("dp 4×4 compute %g must beat pipeline:4 %g", prWide.Epoch.Comp(), prNarrow.Epoch.Comp())
	}
	wide.P1 = 3
	if _, err := Project(wide, DataPipeline); err == nil {
		t.Fatal("P1·P2 ≠ P must be rejected")
	}
}

// TestAdviseRanksDataPipeline: the advisor now ranks dp with the rest.
func TestAdviseRanksDataPipeline(t *testing.T) {
	cfg := testConfig(t, model.ResNet50(), 64, 8)
	advs, err := Advise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range advs {
		if a.Projection.Strategy == DataPipeline {
			found = true
		}
	}
	if !found {
		t.Fatal("advisor must rank data+pipeline")
	}
}
