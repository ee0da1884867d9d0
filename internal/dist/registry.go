package dist

import (
	"fmt"
	"time"

	"paradl/internal/ckpt"
	"paradl/internal/core"
	"paradl/internal/nn"
	"paradl/internal/tensor"
	"paradl/internal/trace"
)

// runConfig carries every knob of one training run. It is assembled
// only by Run from the functional options below, so every entry path
// feeds the driver and the engines identically.
type runConfig struct {
	seed     int64
	lr       float64
	momentum float64
	hook     func(iter int, loss float64)
	// arInputGrad forces the filter-parallel backward to Allreduce the
	// full input gradient instead of the default footnote-2
	// reduce-scatter (see tensorpar.go); kept as a knob so the two
	// exchange paths can be compared for parity.
	arInputGrad bool
	// overlap launches each gradient bucket's allreduce nonblocking as
	// soon as the bucket fills during the backward pass, overlapping the
	// exchange with the backward compute of the layers below (the DDP
	// scheme); off runs the identical bucketed exchange blocking at the
	// same flush points, so the two modes are bit-identical and A/B
	// comparable.
	overlap bool
	// bucketBytes bounds the gradient bucket size (bytes of float64
	// payload) at which an exchange launches.
	bucketBytes int
	// planStr is the canonical string of the executing plan, stamped by
	// Run so checkpoints record what produced them.
	planStr string
	// startIter is the global iteration index of batches[0] — nonzero on
	// a resumed run, where the engines' local batch index bi corresponds
	// to global iteration startIter+bi (hooks, failure matching, and
	// checkpoint cadence all use the global index).
	startIter int
	// prefixLosses is the global loss series before batches[0] (from the
	// restored checkpoint), so emitted snapshots carry the full history.
	prefixLosses []float64
	// initState, when set, replaces the seed-derived initial parameters:
	// every PE builds its replica from the canonical snapshot, drawing
	// nothing, before carving shards, and momentum velocities are
	// re-seeded per shard.
	initState *ckpt.State
	// ckptEvery/ckptSink: every ckptEvery global iterations the engines
	// gather the canonical training state and hand it to ckptSink on the
	// result PE's goroutine (synchronously, like the iteration hook).
	ckptEvery int
	ckptSink  func(*ckpt.State)
	// failPE/failIter inject a failure: world rank failPE panics at the
	// top of global iteration failIter, mid-iteration from its peers'
	// point of view — they die blocked in collectives. failPE < 0 is off.
	failPE, failIter int
	// delays inject stragglers: world rank pe stalls for the mapped
	// duration at the top of global iteration iter, so its peers wait
	// in collectives exactly like behind a real slow node.
	delays map[delayPoint]time.Duration
	// trace, when set, receives phase-attributed span events from every
	// PE of the run (see internal/trace). Nil — the default — makes
	// every tracer call site a nil-receiver no-op.
	trace *trace.Recorder
}

// delayPoint keys one straggler stall: (world rank, global iteration).
type delayPoint struct{ pe, iter int }

// Option customizes a Run call.
type Option func(*runConfig)

// defaultConfig returns the documented defaults: seed 1, plain SGD at
// lr 0.01, no momentum, no hook, footnote-2 reduce-scatter enabled,
// backward/communication overlap on with 256 KiB gradient buckets.
func defaultConfig() runConfig {
	return runConfig{seed: 1, lr: 0.01, overlap: true, bucketBytes: defaultBucketBytes, failPE: -1}
}

// WithSeed sets the parameter-initialization seed (default 1). Every PE
// copies its replica from the seed's draw, made once per model geometry
// and seed in the process and shared read-only, so runs are
// reproducible.
func WithSeed(seed int64) Option { return func(c *runConfig) { c.seed = seed } }

// WithLR sets the SGD learning rate (default 0.01).
func WithLR(lr float64) Option { return func(c *runConfig) { c.lr = lr } }

// WithMomentum enables heavy-ball SGD: v ← µ·v + g, w ← w − lr·v.
// Velocity state lives per PE on exactly the parameter shards the PE
// owns, so momentum runs stay in value parity with the sequential
// baseline under every strategy (each shard's gradient is already its
// slice of the global mean gradient).
func WithMomentum(mu float64) Option { return func(c *runConfig) { c.momentum = mu } }

// WithIterHook registers a per-iteration callback receiving the
// iteration index and its global loss — the same series Result.Losses
// records. The hook runs on the result PE's goroutine, synchronously
// with training, so a slow hook slows the run; it must not call back
// into the run.
func WithIterHook(hook func(iter int, loss float64)) Option {
	return func(c *runConfig) { c.hook = hook }
}

// WithOverlap toggles backward/communication overlap (default on):
// gradient buckets launch nonblocking allreduces as the backward pass
// produces them, hiding the exchange behind the backward compute of the
// layers below. WithOverlap(false) runs the identical bucketed exchange
// synchronously — losses are bit-identical either way (the determinism
// suite pins this), so the knob exists purely for A/B timing.
func WithOverlap(on bool) Option { return func(c *runConfig) { c.overlap = on } }

// WithBucketBytes sets the gradient bucket size bound in bytes (default
// 256 KiB): a bucket's allreduce launches as soon as the gradients
// queued since the last flush reach this many bytes. Smaller buckets
// start overlapping earlier but pay more per-collective overhead;
// n <= 1 flushes every gradient tensor by itself. Bucket boundaries are
// deterministic (backward push order and sizes only), so any value
// keeps bit-reproducibility.
func WithBucketBytes(n int) Option { return func(c *runConfig) { c.bucketBytes = n } }

// WithInputGradAllReduce restores the pre-footnote-2 filter-parallel
// backward: the input gradient is Allreduced to full width even where
// the next sharded layer would immediately narrow it to its own slice.
// Default off (the reduce-scatter path runs); the option exists for
// A/B parity checks and overhead comparisons.
func WithInputGradAllReduce() Option { return func(c *runConfig) { c.arInputGrad = true } }

// WithFailAt injects a failure for the elastic-recovery path: world
// rank pe panics at the top of global iteration iter, so its peers die
// mid-collective exactly like a real PE loss. A negative pe disables
// injection (the WithFailAt(-1, -1) a supervisor appends on recovery
// attempts). Run reports the death as a *PEFailure error.
func WithFailAt(pe, iter int) Option {
	return func(c *runConfig) { c.failPE, c.failIter = pe, iter }
}

// WithDelay injects a straggler: world rank pe stalls for d at the top
// of global iteration iter before computing, so its peers observe a
// slow node (they block in the iteration's collectives until it
// catches up). Stalls change timing only — the loss trajectory is
// bit-identical to an unstalled run. Multiple WithDelay options
// accumulate; chaos schedules arm one per straggle fault.
func WithDelay(pe, iter int, d time.Duration) Option {
	return func(c *runConfig) {
		if c.delays == nil {
			c.delays = map[delayPoint]time.Duration{}
		}
		c.delays[delayPoint{pe, iter}] = d
	}
}

// WithTrace attaches a phase-attributed trace recorder: every PE of
// the run records which phase (compute, collective, halo, pipeline
// transfer, …) it is in at every moment into its own ring buffer in
// rec. The recorder may be shared across runs (an elastic supervisor's
// legs all write the same recorder) but must only be read — Summarize,
// WriteChrome — after Run returns. A nil rec is the default: tracing
// disabled at zero cost.
func WithTrace(rec *trace.Recorder) Option {
	return func(c *runConfig) { c.trace = rec }
}

// WithCheckpoint registers a checkpoint sink: every `every` global
// iterations — right after the optimizer step — the engines gather the
// canonical unsharded training state (full params, full momentum
// velocities, cursor, loss history) and pass it to sink on the result
// PE's goroutine, synchronously with training. The gather is pure data
// movement: a checkpointing run stays bit-identical to a plain one.
// every < 1 or a nil sink disables checkpointing.
func WithCheckpoint(every int, sink func(*ckpt.State)) Option {
	return func(c *runConfig) { c.ckptEvery, c.ckptSink = every, sink }
}

// WithInitState resumes from a canonical checkpoint: every PE builds
// its replica from the snapshot's full parameters, drawing nothing,
// before carving shards (so any plan re-shards the same canonical
// state), momentum velocities are re-seeded shard by shard, and the
// run's seed, lr, momentum, loss history, and iteration offset all come
// from the snapshot. Resuming under the checkpoint's own plan is bit-identical
// to never having stopped; resuming under a different plan is a live
// migration through the same path.
func WithInitState(st *ckpt.State) Option {
	return func(c *runConfig) {
		c.initState = st
		if st == nil {
			return
		}
		c.startIter = st.Iter
		c.seed = st.Seed
		c.lr = st.LR
		c.momentum = st.Momentum
		c.prefixLosses = st.Losses
	}
}

// fire invokes the per-iteration hook if one is registered. iter is the
// engine's local batch index; the hook sees the global iteration.
func (c *runConfig) fire(iter int, loss float64) {
	if c.hook != nil {
		c.hook(c.startIter+iter, loss)
	}
}

// maybeFail panics with a *PEFailure when this PE is the configured
// casualty of global iteration startIter+bi. It runs at the top of the
// iteration body, before any collective: the victim dies cleanly while
// its peers are already (or soon) blocked in exchanges, so the world
// observes a mid-iteration loss and aborts. An injected straggle shows
// up on the trace as idle time (drive opens an idle span around this
// call).
func (c *runConfig) maybeFail(worldRank, bi int) {
	if d, ok := c.delays[delayPoint{worldRank, c.startIter + bi}]; ok {
		time.Sleep(d) // straggle first: a slow node can still die
	}
	if worldRank == c.failPE && c.startIter+bi == c.failIter {
		panic(&PEFailure{PE: worldRank, Iter: c.failIter, At: time.Now()})
	}
}

// snapshotDue reports whether the iteration at local batch index bi
// ends on a checkpoint boundary.
func (c *runConfig) snapshotDue(bi int) bool {
	return c.ckptSink != nil && c.ckptEvery > 0 && (c.startIter+bi+1)%c.ckptEvery == 0
}

// emit assembles the canonical snapshot after local iteration bi and
// hands it to the sink. tail is the engine's local loss series
// (batches[0..bi]); the restored prefix is prepended so the snapshot
// always carries the full global history.
func (c *runConfig) emit(modelName string, bi int, tail []float64, params, vel []nn.Params) {
	iter := c.startIter + bi + 1
	losses := make([]float64, 0, len(c.prefixLosses)+bi+1)
	losses = append(losses, c.prefixLosses...)
	losses = append(losses, tail[:bi+1]...)
	c.ckptSink(&ckpt.State{
		Model: modelName, Plan: c.planStr, Iter: iter,
		Seed: c.seed, LR: c.lr, Momentum: c.momentum,
		Cursor: iter, Losses: losses, Params: params, Vel: vel,
		// The data-cursor stream records the RNG lineage of the input
		// pipeline explicitly (seed + next draw index), so stochastic
		// consumers resume bit-identically even if Cursor's meaning
		// ever diverges from "iterations completed".
		Streams: []ckpt.Stream{{Name: "data-cursor", Seed: c.seed, Next: int64(iter)}},
	})
}

// stepper adapts the configured optimizer to the runtime's two update
// surfaces, both driven by the gradient exchanger: a whole parameter
// tensor or shard stepped at drain (step), and the flat chunk of a
// parameter a PE updates inside the ring (stepChunk). With zero momentum
// it is plain SGD; otherwise it wraps one nn.Momentum per PE, whose
// identity-keyed velocities give each shard its own slice of the global
// velocity.
type stepper struct {
	lr  float64
	mom *nn.Momentum // nil for plain SGD
}

func newStepper(cfg *runConfig) *stepper {
	s := &stepper{lr: cfg.lr}
	if cfg.momentum != 0 {
		s.mom = nn.NewMomentum(cfg.lr, cfg.momentum)
	}
	return s
}

// step updates w in place from gradient g (no-op when either is nil).
func (s *stepper) step(w, g *tensor.Tensor) {
	if w == nil || g == nil {
		return
	}
	if s.mom != nil {
		s.mom.Update(w, g)
		return
	}
	tensor.SGDStep(w, g, s.lr)
}

// stepChunk updates the chunk ch names from g, the matching chunk of
// the reduced gradient. It runs on a collective's worker goroutine and
// touches nothing but the chunk: the velocity lives in ch, not the map.
func (s *stepper) stepChunk(ch *paramChunk, g *tensor.Tensor) {
	if s.mom == nil {
		tensor.SGDStep(ch.w, g, s.lr)
		return
	}
	if ch.v == nil {
		ch.v = tensor.New(ch.n)
	}
	s.mom.UpdateWith(ch.v, ch.w, g)
}

// engineFunc applies one strategy's Table 3 feasibility checks to a
// normalized, validated plan and returns the engine drive will run;
// label is the Result.Strategy name, which the checks quote.
type engineFunc func(m *nn.Model, pl Plan, label string, cfg *runConfig) (*engine, error)

// registry maps every executable strategy to its Result label and its
// engine, one per Table 3 family. The pure strategies are registered as
// the degenerate edges of the grid engines they share with the hybrids —
// data is the P2=1 edge of the Tensor grid, filter and channel its P1=1
// edges (output- and input-channel shards), spatial/pipeline the P1=1
// edges of their grids, serial the Tensor grid's 1×1 corner — so a new
// strategy lands as one entry here, not a new export.
var registry = map[core.Strategy]struct {
	label  string
	engine engineFunc
}{
	core.Serial:       {"sequential", tensorEngine},
	core.Data:         {"data", tensorEngine},
	core.Filter:       {"filter", tensorEngine},
	core.Spatial:      {"spatial", dataSpatialEngine},
	core.Channel:      {"channel", tensorEngine},
	core.Pipeline:     {"pipeline", dataPipelineEngine},
	core.DataFilter:   {"data+filter", tensorEngine},
	core.DataSpatial:  {"data+spatial", dataSpatialEngine},
	core.DataPipeline: {"data+pipeline", dataPipelineEngine},
}

// Strategies lists every strategy with a registered engine, in plan
// order: the serial baseline, the five pure strategies, then the grid
// hybrids. (core.Strategies lists the PROJECTABLE set; the two differ
// exactly by Serial, the baseline only the runtime executes — dp is
// both executable and, via the §3.6 composition, projectable.)
func Strategies() []core.Strategy {
	return []core.Strategy{
		core.Serial, core.Data, core.Spatial, core.Filter, core.Channel,
		core.Pipeline, core.DataFilter, core.DataSpatial, core.DataPipeline,
	}
}

// Run executes a training run described by a Plan: it validates the
// plan and hands it, with the options applied, to the step driver,
// which looks the strategy's engine up in the registry. This is the
// single entry point of the runtime — the advisor, the CLI and the
// elastic supervisor all converge here, so a strategy choice is a
// runtime value rather than a function name.
func Run(m *nn.Model, batches []Batch, pl Plan, opts ...Option) (*Result, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	pl = pl.normalized()
	if err := pl.Validate(); err != nil {
		return nil, err // includes unregistered strategies
	}
	cfg.planStr = pl.String()
	if st := cfg.initState; st != nil {
		if st.Model != m.Name {
			return nil, fmt.Errorf("dist: checkpoint is for model %q, run is for %q", st.Model, m.Name)
		}
		if len(st.Params) != m.G() {
			return nil, fmt.Errorf("dist: checkpoint has %d layers, model %q has %d", len(st.Params), m.Name, m.G())
		}
	}
	return drive(m, batches, pl, &cfg)
}
