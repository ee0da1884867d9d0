package paradl_test

import (
	"math"
	"testing"

	"paradl"
	"paradl/internal/data"
	"paradl/internal/model"
)

func TestFacadeQuickstart(t *testing.T) {
	m, err := paradl.Model("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	cfg := paradl.WeakScalingConfig(m, 64, 32)
	pr, err := paradl.Project(cfg, paradl.Data)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Iter().Total() <= 0 {
		t.Fatal("non-positive projection")
	}
	if !pr.Feasible {
		t.Fatalf("ResNet-50 data@64 should be feasible: %v", pr.Notes)
	}
}

func TestFacadeAdviseAndBest(t *testing.T) {
	m, err := paradl.Model("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := paradl.WeakScalingConfig(m, 64, 8)
	advs, err := paradl.Advise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != len(paradl.Strategies()) {
		t.Fatalf("advice count %d", len(advs))
	}
	best, err := paradl.Best(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best.Strategy != advs[0].Projection.Strategy {
		t.Fatal("Best must match top advice")
	}
}

func TestFacadeMeasureAgreement(t *testing.T) {
	m, err := paradl.Model("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	cfg := paradl.WeakScalingConfig(m, 16, 32)
	pr, err := paradl.Project(cfg, paradl.Data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := paradl.Measure(cfg, paradl.Data)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy(pr); acc < 0.9 {
		t.Fatalf("facade-level data accuracy %.3f < 0.9", acc)
	}
}

func TestFacadeStrongScaling(t *testing.T) {
	m, err := paradl.Model("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := paradl.StrongScalingConfig(m, 64, 32)
	if cfg.B != 32 {
		t.Fatalf("global batch %d, want 32", cfg.B)
	}
	if _, err := paradl.Project(cfg, paradl.Filter); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeParse(t *testing.T) {
	s, err := paradl.ParseStrategy("df")
	if err != nil || s != paradl.DataFilter {
		t.Fatalf("ParseStrategy(df) = %v, %v", s, err)
	}
}

func TestFacadeRealTraining(t *testing.T) {
	m := model.Tiny3D()
	batches := data.Toy(m, 32).Batches(2, 4)
	opts := []paradl.TrainOption{paradl.WithSeed(7), paradl.WithLR(0.05)}
	seq, err := paradl.Train(m, batches, paradl.Plan{Strategy: paradl.Serial}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := paradl.Train(m, batches, paradl.Plan{Strategy: paradl.Data, P1: 2}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Losses {
		if d := math.Abs(par.Losses[i] - seq.Losses[i]); d > 1e-6 {
			t.Fatalf("iter %d: facade data-parallel loss off by %.3e", i, d)
		}
	}
}

// TestFacadePlanTraining: the plan-driven entry point executes every
// trainable strategy — including the plan-only data×pipeline hybrid —
// in value parity with the serial plan.
func TestFacadePlanTraining(t *testing.T) {
	m := model.Tiny3D()
	batches := data.Toy(m, 32).Batches(2, 4)
	opts := []paradl.TrainOption{paradl.WithSeed(7), paradl.WithLR(0.05)}
	seq, err := paradl.Train(m, batches, paradl.Plan{Strategy: paradl.Serial}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"data:2", "spatial:2", "filter:2", "channel:2", "pipeline:2", "df:2x2", "ds:2x2", "dp:2x2"} {
		pl, err := paradl.ParsePlan(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := paradl.Train(m, batches, pl, opts...)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for i := range seq.Losses {
			if d := math.Abs(res.Losses[i] - seq.Losses[i]); d > 1e-6 {
				t.Fatalf("%s iter %d: loss off by %.3e", s, i, d)
			}
		}
	}
}

// TestFacadeTrainOptions: momentum changes the trajectory but keeps
// cross-strategy parity; the iteration hook streams the loss series.
func TestFacadeTrainOptions(t *testing.T) {
	m := model.Tiny3D()
	batches := data.Toy(m, 32).Batches(2, 4)
	var hooked []float64
	opts := []paradl.TrainOption{
		paradl.WithSeed(7), paradl.WithLR(0.05), paradl.WithMomentum(0.9),
		paradl.WithIterHook(func(_ int, loss float64) { hooked = append(hooked, loss) }),
	}
	seq, err := paradl.Train(m, batches, paradl.Plan{Strategy: paradl.Serial}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(hooked) != len(seq.Losses) || hooked[1] != seq.Losses[1] {
		t.Fatalf("hook streamed %v, result %v", hooked, seq.Losses)
	}
	dp, err := paradl.Train(m, batches, paradl.Plan{Strategy: paradl.DataPipeline, P1: 2, P2: 2},
		paradl.WithSeed(7), paradl.WithLR(0.05), paradl.WithMomentum(0.9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Losses {
		if d := math.Abs(dp.Losses[i] - seq.Losses[i]); d > 1e-6 {
			t.Fatalf("momentum dp iter %d: loss off by %.3e", i, d)
		}
	}
	ar, err := paradl.Train(m, batches, paradl.Plan{Strategy: paradl.Filter, P2: 2},
		paradl.WithSeed(7), paradl.WithLR(0.05), paradl.WithInputGradAllReduce())
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Losses {
		if d := math.Abs(ar.Losses[i] - seq.Losses[i]); d > 1e-6 {
			t.Fatalf("allreduce filter iter %d: loss off by %.3e", i, d)
		}
	}
}

func TestFacadePlanParse(t *testing.T) {
	pl, err := paradl.ParsePlan("ds:4x2")
	if err != nil || pl.Strategy != paradl.DataSpatial || pl.P1 != 4 || pl.P2 != 2 {
		t.Fatalf("ParsePlan(ds:4x2) = %+v, %v", pl, err)
	}
	if pl.String() != "ds:4x2" {
		t.Fatalf("String() = %q", pl.String())
	}
	if _, err := paradl.ParsePlan("df:3x0"); err == nil {
		t.Fatal("df:3x0 must be rejected")
	}
	// Every projectable strategy (incl. the dp composition) is trainable;
	// the runtime additionally executes the serial baseline.
	if n := len(paradl.TrainableStrategies()); n != len(paradl.Strategies())+1 {
		t.Fatalf("trainable strategies: %d", n)
	}
}

func TestFacadeHybridTraining(t *testing.T) {
	m := model.Tiny3D()
	batches := data.Toy(m, 32).Batches(2, 4)
	opts := []paradl.TrainOption{paradl.WithSeed(7), paradl.WithLR(0.05)}
	seq, err := paradl.Train(m, batches, paradl.Plan{Strategy: paradl.Serial}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	df, err := paradl.Train(m, batches, paradl.Plan{Strategy: paradl.DataFilter, P1: 2, P2: 2}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := paradl.Train(m, batches, paradl.Plan{Strategy: paradl.DataSpatial, P1: 2, P2: 2}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Losses {
		if d := math.Abs(df.Losses[i] - seq.Losses[i]); d > 1e-6 {
			t.Fatalf("iter %d: facade df-hybrid loss off by %.3e", i, d)
		}
		if d := math.Abs(ds.Losses[i] - seq.Losses[i]); d > 1e-6 {
			t.Fatalf("iter %d: facade ds-hybrid loss off by %.3e", i, d)
		}
	}
}
