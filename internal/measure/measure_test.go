package measure

import (
	"strings"
	"testing"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/profile"
)

func engine(t testing.TB) *Engine {
	t.Helper()
	return NewEngine(cluster.Default())
}

func weakCfg(t testing.TB, m *nn.Model, p, perPE int) core.Config {
	t.Helper()
	sys := cluster.Default()
	dev := profile.NewDevice(sys.GPU)
	return core.Config{
		Model: m, Sys: sys,
		Times: profile.ProfileModel(dev, m, perPE),
		D:     model.ImageNetSamples,
		B:     perPE * p,
		P:     p,
	}
}

func strongCfg(t testing.TB, m *nn.Model, p, b int) core.Config {
	t.Helper()
	cfg := weakCfg(t, m, p, 1)
	cfg.B = b
	cfg.Times = profile.ProfileModel(profile.NewDevice(cfg.Sys.GPU), m, b)
	return cfg
}

func TestDataAccuracyHigh(t *testing.T) {
	// §5.2: ParaDL reaches 96.10% average accuracy for data parallelism
	// and up to 97.57%. Our clean-fabric measurement should agree to
	// ≥90% at every scale.
	e := engine(t)
	m := model.ResNet50()
	for _, p := range []int{16, 64, 256, 1024} {
		cfg := weakCfg(t, m, p, 32)
		res, err := Measure(e, cfg, core.Data)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.Project(cfg, core.Data)
		if err != nil {
			t.Fatal(err)
		}
		if acc := res.Accuracy(pr); acc < 0.90 {
			t.Fatalf("data accuracy %.3f at p=%d below 0.90", acc, p)
		}
	}
}

func TestAccuracyOrderingDataAboveChannel(t *testing.T) {
	// The paper's per-strategy accuracies order data (96.10%) well above
	// channel (73.67%): the custom channel implementation diverges most
	// from the ideal model.
	e := engine(t)
	m := model.ResNet50()

	cfgD := weakCfg(t, m, 64, 32)
	resD, err := Measure(e, cfgD, core.Data)
	if err != nil {
		t.Fatal(err)
	}
	prD, _ := core.Project(cfgD, core.Data)

	cfgC := strongCfg(t, m, 64, 32)
	resC, err := Measure(e, cfgC, core.Channel)
	if err != nil {
		t.Fatal(err)
	}
	prC, _ := core.Project(cfgC, core.Channel)

	if resD.Accuracy(prD) <= resC.Accuracy(prC) {
		t.Fatalf("data accuracy %.3f must exceed channel accuracy %.3f",
			resD.Accuracy(prD), resC.Accuracy(prC))
	}
}

func TestFilterCommExceedsDataComm(t *testing.T) {
	// §5.3.1: with batch ≥32 the measured layer-wise communication of
	// filter/channel exceeds data parallelism's gradient exchange even
	// though total activations are smaller than the weights.
	e := engine(t)
	m := model.ResNet50()
	resF, err := Measure(e, strongCfg(t, m, 16, 32), core.Filter)
	if err != nil {
		t.Fatal(err)
	}
	resD, err := Measure(e, weakCfg(t, m, 16, 32), core.Data)
	if err != nil {
		t.Fatal(err)
	}
	if resF.Iter.Comm() <= resD.Iter.Comm() {
		t.Fatalf("filter comm %g must exceed data comm %g",
			resF.Iter.Comm(), resD.Iter.Comm())
	}
}

func TestFilterComputeScalesWorseThanIdeal(t *testing.T) {
	// Fig. 8: halving the filters per GPU does NOT halve the measured
	// convolution time — small kernels lose efficiency and split/concat
	// overhead is constant.
	e := engine(t)
	m := model.ResNet50()
	res16, err := Measure(e, strongCfg(t, m, 16, 32), core.Filter)
	if err != nil {
		t.Fatal(err)
	}
	res64, err := Measure(e, strongCfg(t, m, 64, 32), core.Filter)
	if err != nil {
		t.Fatal(err)
	}
	idealRatio := 4.0 // 16 → 64 GPUs divides work by 4
	actualRatio := (res16.Iter.FW + res16.Iter.BW) / (res64.Iter.FW + res64.Iter.BW)
	if actualRatio >= idealRatio*0.9 {
		t.Fatalf("filter compute scaled by %.2f×, suspiciously close to ideal %g×", actualRatio, idealRatio)
	}
	if actualRatio <= 1.0 {
		t.Fatalf("filter compute must still shrink with p (ratio %.2f)", actualRatio)
	}
}

func TestChannelSlowerThanFilter(t *testing.T) {
	// §4.5.1: channel parallelism needs the extra input re-scatter from
	// the second layer on, so its measured compute exceeds filter's.
	e := engine(t)
	m := model.VGG16()
	f, err := Measure(e, strongCfg(t, m, 16, 32), core.Filter)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Measure(e, strongCfg(t, m, 16, 32), core.Channel)
	if err != nil {
		t.Fatal(err)
	}
	if c.Iter.Comp() <= f.Iter.Comp() {
		t.Fatalf("channel compute %g must exceed filter compute %g", c.Iter.Comp(), f.Iter.Comp())
	}
}

func TestSpatialHaloOnMPIPath(t *testing.T) {
	e := engine(t)
	m := model.ResNet50()
	cfg := weakCfg(t, m, 4, 8)
	res, err := Measure(e, cfg, core.Spatial)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iter.Halo <= 0 {
		t.Fatal("spatial must measure halo time")
	}
	if res.Iter.Scatter <= 0 {
		t.Fatal("spatial must pay the pre-head Allgatherv")
	}
}

func TestSpatialLimitEnforced(t *testing.T) {
	e := engine(t)
	m := model.ResNet50() // MinSpatial is 64 (8×8 trunk tail)
	cfg := weakCfg(t, m, 128, 1)
	if _, err := Measure(e, cfg, core.Spatial); err == nil {
		t.Fatal("spatial beyond the extent limit must error")
	}
}

func TestDataFilterSegmentedGE(t *testing.T) {
	// df's segmented Allreduce contends on the node uplinks: its GE must
	// exceed HALF the plain data GE of the same weight volume (it moves
	// 1/p2 of the bytes but φ≈2 eats the advantage).
	e := engine(t)
	m := model.VGG16()
	cfg := weakCfg(t, m, 64, 8)
	cfg.P1, cfg.P2 = 16, 4
	df, err := Measure(e, cfg, core.DataFilter)
	if err != nil {
		t.Fatal(err)
	}
	if df.Iter.GE <= 0 || df.Iter.FBComm <= 0 {
		t.Fatal("df needs both GE and intra-group comm")
	}
	d, err := Measure(e, weakCfg(t, m, 64, 8), core.Data)
	if err != nil {
		t.Fatal(err)
	}
	if df.Iter.GE >= d.Iter.GE {
		t.Fatalf("df segmented GE %g should still beat full data GE %g (smaller shard)", df.Iter.GE, d.Iter.GE)
	}
	if df.Iter.GE < d.Iter.GE/float64(cfg.P2)*1.2 {
		t.Fatalf("df GE %g suspiciously fast — φ contention missing (data GE %g, p2=%d)", df.Iter.GE, d.Iter.GE, cfg.P2)
	}
}

func TestDataSpatialGEOverhead(t *testing.T) {
	// §5.3.1: the hierarchical ds Allreduce costs >2× the plain data
	// Allreduce (leader staging moves the full buffer twice on NVLink).
	e := engine(t)
	m := model.ResNet50()
	cfg := weakCfg(t, m, 64, 8)
	cfg.P1, cfg.P2 = 16, 4
	ds, err := Measure(e, cfg, core.DataSpatial)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Measure(e, weakCfg(t, m, 64, 8), core.Data)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ds.Iter.GE / d.Iter.GE
	if ratio < 1.5 {
		t.Fatalf("ds GE should be ≳2× data GE, got %.2f×", ratio)
	}
}

func TestPipelineBubbleShape(t *testing.T) {
	// Doubling the segments shrinks the per-iteration bubble: with p=4,
	// compute time scales as (p+S−1)/S per micro-batch slot.
	e := engine(t)
	m := model.VGG16()
	cfg := weakCfg(t, m, 4, 8)
	cfg.B = 32
	cfg.Segments = 2
	s2, err := Measure(e, cfg, core.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Segments = 8
	s8, err := Measure(e, cfg, core.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if s8.Iter.Comp() >= s2.Iter.Comp() {
		t.Fatalf("more segments must reduce bubble: S=8 %g vs S=2 %g", s8.Iter.Comp(), s2.Iter.Comp())
	}
}

func TestPipelineLimitEnforced(t *testing.T) {
	e := engine(t)
	m := model.Tiny3D() // 7 layers
	cfg := weakCfg(t, m, 8, 4)
	if _, err := Measure(e, cfg, core.Pipeline); err == nil {
		t.Fatal("pipeline with p > G must error")
	}
}

func TestBackgroundCongestionInflatesGE(t *testing.T) {
	// Fig. 6: external traffic pushes Allreduce times up to ≈4× the
	// α–β line.
	m := model.ResNet50()
	cfg := weakCfg(t, m, 16, 32)

	clean := NewEngine(cluster.Default())
	base, err := Measure(clean, cfg, core.Data)
	if err != nil {
		t.Fatal(err)
	}

	congested := NewEngine(cluster.Default())
	for pe := 0; pe < 16; pe += congested.Sys.GPUsPerNode {
		congested.AddBackgroundOn(congested.Topo.UplinkOf(pe + 3))
	}
	slow, err := Measure(congested, cfg, core.Data)
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow.Iter.GE / base.Iter.GE
	if ratio < 1.3 {
		t.Fatalf("congestion ratio %.2f too small", ratio)
	}
	if ratio > 6 {
		t.Fatalf("congestion ratio %.2f beyond Fig. 6's ≈4× regime", ratio)
	}
}

func TestEpochScalesIterations(t *testing.T) {
	e := engine(t)
	m := model.ResNet50()
	cfg := weakCfg(t, m, 16, 32)
	res, err := Measure(e, cfg, core.Data)
	if err != nil {
		t.Fatal(err)
	}
	iters := float64(cfg.D) / float64(cfg.B)
	if got, want := res.Epoch().Total(), res.Iter.Total()*iters; got < want*0.999 || got > want*1.001 {
		t.Fatalf("epoch %g != iter × iterations %g", got, want)
	}
}

func TestMeasureValidation(t *testing.T) {
	e := engine(t)
	m := model.ResNet50()
	cfg := weakCfg(t, m, 16, 32)
	cfg.B = 0
	if _, err := Measure(e, cfg, core.Data); err == nil {
		t.Fatal("B=0 must be rejected")
	}
	cfg = weakCfg(t, m, 16, 32)
	cfg.B = 8 // fewer samples than PEs
	if _, err := Measure(e, cfg, core.Data); err == nil {
		t.Fatal("B<P data parallelism must be rejected")
	}
}

func TestSerialMatchesOracleExactly(t *testing.T) {
	// Serial has no communication and both sides price compute from the
	// same device model, so they must agree almost exactly.
	e := engine(t)
	m := model.VGG16()
	cfg := weakCfg(t, m, 1, 32)
	res, err := Measure(e, cfg, core.Serial)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := core.Project(cfg, core.Serial)
	if acc := res.Accuracy(pr); acc < 0.999 {
		t.Fatalf("serial accuracy %.4f should be ≈1", acc)
	}
}

// Measure normalises through core.Validate, the oracle's own
// normaliser: a hybrid given one grid axis is simulated on the grid the
// oracle projects (Measure used to fill defaults itself and left the
// other axis at zero), Compare hands back the pair on one config, and a
// grid that does not factor P is rejected on both sides alike.
func TestMeasureSharesTheOracleNormaliser(t *testing.T) {
	e := engine(t)
	cfg := weakCfg(t, model.ResNet50(), 8, 4)
	cfg.P2 = 2
	pr, res, err := Compare(e, cfg, core.DataFilter)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Ref() != pr.Config.Ref() || res.Config.P1 != 4 || res.Config.Segments != 4 {
		t.Fatalf("simulated %+v, projected %+v", res.Config.Ref(), pr.Config.Ref())
	}
	cfg.P1 = 3
	if _, err := Measure(e, cfg, core.DataFilter); err == nil {
		t.Fatal("P1·P2 ≠ P simulated")
	}
	if _, _, err := Compare(e, cfg, core.DataFilter); err == nil || !strings.HasPrefix(err.Error(), "oracle: ") {
		t.Fatalf("Compare must name the rejecting side, got %v", err)
	}
}
