package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"paradl/internal/ckpt"
	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/trace"
)

// planSpec is one plan of a training round and the end-to-end metric
// class its throughput feeds.
type planSpec struct {
	suffix string
	plan   dist.Plan
	class  string // serial | data | modelpar | p4
}

// trainPlans are the eleven plans every training round runs, p = 2
// first (p = cores on the reference box, so wall-clock scaling is
// honest), then p = 4 (more PEs than cores: absolute throughput only).
var trainPlans = []planSpec{
	{"serial", dist.Plan{Strategy: core.Serial}, "serial"},
	{"data2", dist.Plan{Strategy: core.Data, P1: 2}, "data"},
	{"spatial2", dist.Plan{Strategy: core.Spatial, P2: 2}, "modelpar"},
	{"filter2", dist.Plan{Strategy: core.Filter, P2: 2}, "modelpar"},
	{"channel2", dist.Plan{Strategy: core.Channel, P2: 2}, "modelpar"},
	{"pipeline2", dist.Plan{Strategy: core.Pipeline, P2: 2}, "modelpar"},
	{"data4", dist.Plan{Strategy: core.Data, P1: 4}, "p4"},
	{"filter4", dist.Plan{Strategy: core.Filter, P2: 4}, "p4"},
	{"df2x2", dist.Plan{Strategy: core.DataFilter, P1: 2, P2: 2}, "p4"},
	{"ds2x2", dist.Plan{Strategy: core.DataSpatial, P1: 2, P2: 2}, "p4"},
	{"dp2x2", dist.Plan{Strategy: core.DataPipeline, P1: 2, P2: 2}, "p4"},
}

// benchWide2D is the compute-bound model: three 3x3 convolutions on a
// 32x32 image carry ~95% of the FLOPs; BN-free so every plan keeps
// value parity with serial SGD.
func benchWide2D() *nn.Model {
	b := nn.NewBuilder("bench-wide2d", 3, []int{32, 32})
	b.Conv(16, 3, 1, 1).ReLU()
	b.Conv(32, 3, 1, 1).ReLU()
	b.Pool(nn.MaxPool, 2, 2, 0)
	b.Conv(32, 3, 1, 1).ReLU()
	b.Pool(nn.MaxPool, 2, 2, 0)
	b.FC(10)
	return b.MustBuild()
}

// benchFCNet is the exchange-bound model: VGG-style, two 1024-wide FC
// layers hold ~1.2M parameters (~10 MB of float64 gradients) behind a
// token convolution, so the data plan is dominated by the allreduce
// and the weight update.
func benchFCNet() *nn.Model {
	b := nn.NewBuilder("bench-fcnet", 4, []int{8, 8})
	b.Conv(8, 3, 1, 1).ReLU()
	b.Pool(nn.MaxPool, 2, 2, 0)
	b.FC(1024).ReLU()
	b.FC(1024).ReLU()
	b.FC(10)
	return b.MustBuild()
}

// trainSpec is the shape of a training section: which models, the
// global batch, and the iterations of one dist.Run.
type trainSpec struct {
	build func() []*nn.Model
	batch int
	iters int
}

var trainSpecs = map[string]trainSpec{
	"train_compute": {func() []*nn.Model { return []*nn.Model{benchWide2D()} }, 8, 2},
	"train_comm":    {func() []*nn.Model { return []*nn.Model{benchFCNet()} }, 4, 8},
	"train_small": {func() []*nn.Model {
		return []*nn.Model{model.TinyCNNNoBN(), model.TinyResNet(), model.Tiny3D()}
	}, 8, 8},
}

// crossTrainSpec is the short training cross-check a planner workload
// runs so that it, too, reports the training metrics.
var crossTrainSpec = trainSpec{func() []*nn.Model { return []*nn.Model{model.TinyCNNNoBN()} }, 8, 8}

// runKey addresses one (model, plan) cell of a round.
type runKey struct{ model, plan int }

// tracedObs is what a traced run adds to its wall time.
type tracedObs struct {
	iterGapsMS     []float64 // gaps between consecutive hook callbacks
	fixedMS        float64   // run span self time: wall minus its iteration spans
	mallocsPerIter float64
	allocKBPerIter float64
	computeShare   float64
	commShare      float64
	hiddenMSIter   float64
	collPerIter    float64
	coverage       float64
	dropped        int
}

// trainSection owns one training section: the models, their generated
// batches, and everything observed over its rounds.
type trainSection struct {
	spec    trainSpec
	models  []*nn.Model
	batches [][]dist.Batch
	rec     *spanRecorder
	cores   *settler

	attempted, failed int
	maxLossDiff       float64
	prev              map[runKey][]float64 // previous round's loss series
	tput              map[runKey][]float64 // samples/s of untraced runs
	tputTraced        map[runKey][]float64
	traced            map[runKey][]tracedObs
	untracedRoundS    []float64
	tracedRoundS      []float64
}

// newTrainSection builds the models and generates the batches from
// rng; dg records what was generated.
func newTrainSection(spec trainSpec, rng *rand.Rand, dg *digester, rec *spanRecorder, cores *settler) *trainSection {
	s := &trainSection{
		spec: spec, models: spec.build(), rec: rec, cores: cores,
		prev: map[runKey][]float64{}, tput: map[runKey][]float64{},
		tputTraced: map[runKey][]float64{}, traced: map[runKey][]tracedObs{},
	}
	for _, m := range s.models {
		b := genBatches(m, rng, spec.iters, spec.batch)
		dg.batches(b)
		s.batches = append(s.batches, b)
	}
	return s
}

// warmUp runs every plan once on the first batch only, so heap growth
// and first-use costs are paid before the timed rounds. Its losses
// seed the round-to-round bit-identity check.
func (s *trainSection) warmUp() {
	for mi := range s.models {
		var serial []float64
		for pi, ps := range trainPlans {
			res, err := dist.Run(s.models[mi], s.batches[mi][:1], ps.plan)
			s.check(runKey{mi, pi}, res, err, &serial)
			s.afterRun(ps)
		}
	}
}

// check counts one run as attempted and as failed when it errored,
// produced a non-finite loss, left serial parity by more than 1e-6, or
// is not bit-identical to the same cell's previous run over their
// common prefix. serial carries the round's serial loss series.
func (s *trainSection) check(k runKey, res *dist.Result, err error, serial *[]float64) bool {
	s.attempted++
	ok := err == nil && res != nil && len(res.Losses) > 0
	if ok {
		if trainPlans[k.plan].class == "serial" {
			*serial = res.Losses
		}
		for i, l := range res.Losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				ok = false
				break
			}
			if i < len(*serial) {
				d := math.Abs(l - (*serial)[i])
				if d > s.maxLossDiff {
					s.maxLossDiff = d
				}
				if d > 1e-6 {
					ok = false
				}
			}
			if prev := s.prev[k]; i < len(prev) && math.Float64bits(prev[i]) != math.Float64bits(l) {
				ok = false
			}
		}
		if len(res.Losses) >= len(s.prev[k]) {
			s.prev[k] = res.Losses
		}
	}
	if !ok {
		s.failed++
		fmt.Printf("# FAILED run model=%s plan=%s err=%v\n", s.models[k.model].Name, trainPlans[k.plan].suffix, err)
	}
	return ok
}

// afterRun wakes both cores again after a single-threaded run, so the
// parallel run that follows is not timed while the kernel still has
// its PEs on one core (see settle.go). Untimed.
func (s *trainSection) afterRun(ps planSpec) {
	if ps.class == "serial" {
		s.cores.settle()
	}
}

// round runs every (model, plan) cell once, plans interleaved so that
// drift over the run spreads evenly over the plans. A traced round
// passes the iteration hook and a phase recorder and brackets each run
// with allocation counters; an untraced round passes nothing.
func (s *trainSection) round(traced bool) {
	start := time.Now()
	tput, rounds := s.tput, &s.untracedRoundS
	if traced {
		tput, rounds = s.tputTraced, &s.tracedRoundS
	}
	samples := float64(s.spec.iters * s.spec.batch)
	for mi, m := range s.models {
		var serial []float64
		for pi, ps := range trainPlans {
			k := runKey{mi, pi}
			var (
				obs  tracedObs
				wall time.Duration
				res  *dist.Result
				err  error
			)
			if traced {
				obs, wall, res, err = s.tracedRun(m, s.batches[mi], ps)
			} else {
				t0 := time.Now()
				res, err = dist.Run(m, s.batches[mi], ps.plan)
				wall = time.Since(t0)
			}
			if s.check(k, res, err, &serial) {
				tput[k] = append(tput[k], samples/wall.Seconds())
				if traced {
					s.traced[k] = append(s.traced[k], obs)
				}
			}
			s.afterRun(ps)
		}
	}
	*rounds = append(*rounds, time.Since(start).Seconds())
}

// tracedRun is one dist.Run observed from outside: a run span with one
// child span per iteration (bounded by the hook callbacks), allocation
// counters around it, and the program's own phase recorder attached.
func (s *trainSection) tracedRun(m *nn.Model, batches []dist.Batch, ps planSpec) (tracedObs, time.Duration, *dist.Result, error) {
	hooks := make([]time.Time, 0, len(batches))
	prec := trace.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := s.rec.begin("dist.run."+ps.suffix, -1)
	t0 := time.Now()
	res, err := dist.Run(m, batches, ps.plan,
		dist.WithIterHook(func(int, float64) { hooks = append(hooks, time.Now()) }),
		dist.WithTrace(prec))
	wall := time.Since(t0)
	s.rec.end(id)
	runtime.ReadMemStats(&after)

	var obs tracedObs
	if err != nil || len(hooks) < 2 {
		return obs, wall, res, err
	}
	for i := 1; i < len(hooks); i++ {
		obs.iterGapsMS = append(obs.iterGapsMS, hooks[i].Sub(hooks[i-1]).Seconds()*1e3)
		s.rec.add("dist.iter."+ps.suffix, id, hooks[i-1], hooks[i])
	}
	// The first iteration has no opening callback: give it the median
	// gap, ending at the first callback, so the run span's self time is
	// the fixed cost around the iterations (world set-up, replica
	// initialisation, teardown).
	first := hooks[0].Add(-time.Duration(median(obs.iterGapsMS) * float64(time.Millisecond)))
	if first.Before(t0) {
		first = t0
	}
	s.rec.add("dist.iter."+ps.suffix, id, first, hooks[0])
	obs.fixedMS = (wall - hooks[len(hooks)-1].Sub(first)).Seconds() * 1e3

	iters := float64(len(batches))
	obs.mallocsPerIter = float64(after.Mallocs-before.Mallocs) / iters
	obs.allocKBPerIter = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / iters
	sum := prec.Summarize()
	if busy := sum.BusyNS(); busy > 0 {
		obs.computeShare = float64(sum.ComputeNS()) / float64(busy)
		obs.commShare = float64(sum.CommNS()) / float64(busy)
	}
	obs.hiddenMSIter = float64(sum.AsyncNS) / 1e6 / iters
	obs.coverage, obs.dropped = sum.Coverage, sum.Dropped
	coll := 0
	for _, e := range prec.Events() {
		if e.Phase == trace.CollectiveLaunch || e.Phase == trace.CollectiveWait {
			coll++
		}
	}
	obs.collPerIter = float64(coll) / iters
	return obs, wall, res, err
}

// runFor runs rounds until budget is spent, at least one.
func (s *trainSection) runFor(budget time.Duration, traced bool) {
	start := time.Now()
	for n := 1; ; n++ {
		s.round(traced)
		if elapsed := time.Since(start); elapsed+elapsed/time.Duration(n) > budget {
			return
		}
	}
}

// classThroughput is the end-to-end figure of one plan class: the
// geometric mean, over the class's plans and the section's models, of
// each cell's undisturbed samples/s over the rounds (see undisturbed).
func (s *trainSection) classThroughput(class string) float64 {
	var cells []float64
	for mi := range s.models {
		for pi, ps := range trainPlans {
			if ps.class == class {
				cells = append(cells, undisturbed(s.tput[runKey{mi, pi}], higher))
			}
		}
	}
	return geomean(cells)
}

// endToEnd returns the section's four training metrics.
func (s *trainSection) endToEnd() map[string]float64 {
	return map[string]float64{
		"serial_samples_per_s":   s.classThroughput("serial"),
		"data_samples_per_s":     s.classThroughput("data"),
		"modelpar_samples_per_s": s.classThroughput("modelpar"),
		"p4_samples_per_s":       s.classThroughput("p4"),
	}
}

// perPlan folds one traced observation per (model, plan) cell: the
// median over rounds per cell, then combine over the models.
func (s *trainSection) perPlan(pi int, combine func([]float64) float64, get func(tracedObs) float64) float64 {
	var perModel []float64
	for mi := range s.models {
		var vals []float64
		for _, o := range s.traced[runKey{mi, pi}] {
			vals = append(vals, get(o))
		}
		perModel = append(perModel, median(vals))
	}
	return combine(perModel)
}

// layerMetrics returns the engine and trace rungs measured over the
// traced rounds. stepMS is nn.train_step_ms of the section's first
// model, the base of dist.serial_overhead_pct.
func (s *trainSection) layerMetrics(stepMS float64) map[string]float64 {
	out := map[string]float64{}
	planIndex := map[string]int{}
	var fixed []float64
	coverage, dropped := 1.0, 0
	for pi, ps := range trainPlans {
		planIndex[ps.suffix] = pi
		out["dist.iter_ms."+ps.suffix] = s.perPlan(pi, geomean, func(o tracedObs) float64 { return median(o.iterGapsMS) })
		out["dist.allocs_per_iter."+ps.suffix] = s.perPlan(pi, geomean, func(o tracedObs) float64 { return o.mallocsPerIter })
		for mi := range s.models {
			for _, o := range s.traced[runKey{mi, pi}] {
				fixed = append(fixed, o.fixedMS)
				coverage = math.Min(coverage, o.coverage)
				dropped += o.dropped
			}
		}
	}
	for _, sfx := range []string{"serial", "data2"} {
		out["dist.alloc_kb_per_iter."+sfx] = s.perPlan(planIndex[sfx], geomean, func(o tracedObs) float64 { return o.allocKBPerIter })
	}
	out["dist.run_fixed_ms"] = median(fixed)
	out["dist.loss_max_abs_diff"] = s.maxLossDiff

	var serialIter []float64
	for _, o := range s.traced[runKey{0, planIndex["serial"]}] {
		serialIter = append(serialIter, median(o.iterGapsMS))
	}
	if stepMS > 0 {
		out["dist.serial_overhead_pct"] = (median(serialIter)/stepMS - 1) * 100
	}
	var eff []float64
	for mi := range s.models {
		serial := median(s.tputTraced[runKey{mi, planIndex["serial"]}])
		if serial > 0 {
			eff = append(eff, median(s.tputTraced[runKey{mi, planIndex["data2"]}])/(2*serial))
		}
	}
	out["dist.scaling_eff.data2"] = geomean(eff)

	for _, sfx := range tracedSharePlans {
		pi := planIndex[sfx]
		out["trace.compute_share."+sfx] = s.perPlan(pi, mean, func(o tracedObs) float64 { return o.computeShare })
		out["trace.comm_share."+sfx] = s.perPlan(pi, mean, func(o tracedObs) float64 { return o.commShare })
	}
	d2 := planIndex["data2"]
	out["trace.hidden_comm_ms.data2"] = s.perPlan(d2, mean, func(o tracedObs) float64 { return o.hiddenMSIter })
	out["trace.collective_events_per_iter.data2"] = s.perPlan(d2, mean, func(o tracedObs) float64 { return o.collPerIter })
	out["trace.coverage_min"] = coverage
	out["trace.dropped_events"] = float64(dropped)

	if u := median(s.untracedRoundS); u > 0 {
		out["bench.traced_run_overhead_pct"] = (median(s.tracedRoundS)/u - 1) * 100
	}
	return out
}

// abData2 times the first model's data:2 run with and without extra
// options in alternation, so drift cancels, until budget is spent (at
// least three pairs), and returns the two median walls in seconds.
// Both variants are full runs and are checked like any other.
func (s *trainSection) abData2(budget time.Duration, variant ...dist.Option) (plain, with float64) {
	const pi = 1 // data2
	var walls [2][]float64
	s.cores.settle()
	for start := time.Now(); len(walls[1]) < 3 || time.Since(start) < budget; {
		for v, opts := range [2][]dist.Option{nil, variant} {
			var serial []float64
			t0 := time.Now()
			res, err := dist.Run(s.models[0], s.batches[0], trainPlans[pi].plan, opts...)
			d := time.Since(t0).Seconds()
			s.check(runKey{0, pi}, res, err, &serial)
			walls[v] = append(walls[v], d)
		}
	}
	return median(walls[0]), median(walls[1])
}

// abMetrics measures the two A/B engine rungs: what overlap gains and
// what a per-iteration checkpoint gather costs, both on data:2.
func (s *trainSection) abMetrics(budget time.Duration) map[string]float64 {
	out := map[string]float64{}
	if on, off := s.abData2(budget, dist.WithOverlap(false)); off > 0 {
		out["dist.overlap_gain_pct.data2"] = (off - on) / off * 100
	}
	// The sink drops the snapshot: the rung is the gather, not storage.
	if plain, ck := s.abData2(budget, dist.WithCheckpoint(1, func(*ckpt.State) {})); plain > 0 {
		out["dist.ckpt_gather_stall_pct.data2"] = (ck - plain) / plain * 100
	}
	return out
}
