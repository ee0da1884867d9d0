// Package paradl is the public API of the ParaDL reproduction: an
// oracle that projects computation time, communication time, and
// per-PE memory for distributed CNN training under the six
// parallelization strategies of Kahira et al., "An Oracle for Guiding
// Large-Scale Model/Hybrid Parallel Training of Convolutional Neural
// Networks" (HPDC 2021).
//
// The package is a thin facade over the implementation packages:
//
//   - internal/core      — the analytical model (Table 3) and advisor
//   - internal/model     — the model zoo (ResNet-50/152, VGG16, CosmoFlow)
//   - internal/cluster   — the machine model (GPUs, fat tree, α/β)
//   - internal/profile   — empirical parametrization (FW/BW/WU, α–β fits)
//   - internal/measure   — simulated "measured" runs for validation
//   - internal/dist      — real partitioned execution of every strategy
//   - internal/report    — regeneration of the paper's tables & figures
//
// Quick start:
//
//	m, _ := paradl.Model("resnet50")
//	cfg := paradl.WeakScalingConfig(m, 64, 32) // 64 GPUs, 32 samples/GPU
//	pr, _ := paradl.Project(cfg, paradl.Data)
//	fmt.Printf("iteration: %.1f ms\n", pr.Iter().Total()*1e3)
//
// Real (toy-scale) execution of any strategy goes through one
// plan-driven entry point:
//
//	pl, _ := paradl.ParsePlan("df:4x2") // 4 data-parallel groups × filter width 2
//	res, _ := paradl.Train(m, batches, pl, paradl.WithSeed(7), paradl.WithLR(0.05))
package paradl

import (
	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/measure"
	"paradl/internal/model"
	"paradl/internal/nn"
)

// Strategy re-exports the parallelization strategies of §3.
type Strategy = core.Strategy

// The strategies of §3 plus the serial baseline and the executable-only
// data×pipeline hybrid.
const (
	Serial       = core.Serial
	Data         = core.Data
	Spatial      = core.Spatial
	Pipeline     = core.Pipeline
	Filter       = core.Filter
	Channel      = core.Channel
	DataFilter   = core.DataFilter
	DataSpatial  = core.DataSpatial
	DataPipeline = core.DataPipeline
)

// Config re-exports the oracle's input description.
type Config = core.Config

// Projection re-exports the oracle's output.
type Projection = core.Projection

// Breakdown re-exports the per-phase time split.
type Breakdown = core.Breakdown

// System re-exports the machine model.
type System = cluster.System

// NetModel re-exports the CNN description consumed by the oracle.
type NetModel = nn.Model

// Model returns a model from the paper's zoo by name
// (resnet50|resnet152|vgg16|cosmoflow).
func Model(name string) (*NetModel, error) { return model.ByName(name) }

// Models lists the zoo in Table 5 order.
func Models() []string { return model.Names() }

// DefaultSystem returns the paper's evaluation machine (§5.1).
func DefaultSystem() *System { return cluster.Default() }

// WeakScalingConfig assembles a ready-to-project configuration with the
// de facto DL scaling mode (§4.2): global batch = perGPU·gpus on the
// default system, with per-layer times profiled on the default device
// model.
func WeakScalingConfig(m *NetModel, gpus, perGPU int) Config {
	return StrongScalingConfig(m, gpus, perGPU*gpus)
}

// StrongScalingConfig assembles a fixed-global-batch configuration (the
// paper's filter/channel mode), profiled at the per-GPU batch
// max(1, globalBatch/gpus).
func StrongScalingConfig(m *NetModel, gpus, globalBatch int) Config {
	d := int64(1 << 20)
	if ds, err := data.ForModel(m.Name); err == nil {
		d = ds.Samples
	}
	return core.NewConfig(m, cluster.Default(), d, globalBatch, gpus, 0, nil)
}

// Project evaluates the analytical model for one strategy.
func Project(cfg Config, s Strategy) (*Projection, error) { return core.Project(cfg, s) }

// Advise ranks all strategies for a configuration, feasible first.
func Advise(cfg Config) ([]core.Advice, error) { return core.Advise(cfg) }

// Best returns the fastest feasible strategy.
func Best(cfg Config) (*Projection, error) { return core.Best(cfg) }

// Measure runs the simulated "measured" side for validation studies.
func Measure(cfg Config, s Strategy) (*measure.Result, error) {
	return measure.Measure(measure.NewEngine(cfg.Sys), cfg, s)
}

// TrainBatch re-exports one real-execution training step's input.
type TrainBatch = dist.Batch

// TrainResult re-exports a real-execution run: strategy, grid shape,
// and per-iteration losses.
type TrainResult = dist.Result

// Plan re-exports the real runtime's execution plan: a Strategy plus
// the P1×P2 grid shape to run it on. Plans round-trip through strings
// ("data:4", "ds:4x2") via ParsePlan and Plan.String.
type Plan = dist.Plan

// TrainOption re-exports the functional options of Train.
type TrainOption = dist.Option

// ParsePlan parses an execution plan string — a strategy name
// optionally followed by a width ("data:4", "pipeline:3") or an
// explicit grid ("df:4x2").
func ParsePlan(s string) (Plan, error) { return dist.ParsePlan(s) }

// WithSeed sets the parameter-initialization seed of a Train run
// (default 1).
func WithSeed(seed int64) TrainOption { return dist.WithSeed(seed) }

// WithLR sets the SGD learning rate of a Train run (default 0.01).
func WithLR(lr float64) TrainOption { return dist.WithLR(lr) }

// WithMomentum enables heavy-ball SGD (v ← µ·v + g, w ← w − lr·v);
// momentum runs keep value parity with the sequential baseline under
// every strategy.
func WithMomentum(mu float64) TrainOption { return dist.WithMomentum(mu) }

// WithIterHook registers a per-iteration callback receiving each
// iteration's index and global loss as training progresses.
func WithIterHook(hook func(iter int, loss float64)) TrainOption { return dist.WithIterHook(hook) }

// WithInputGradAllReduce restores the pre-footnote-2 filter-parallel
// backward (full-width input-gradient Allreduce instead of the default
// reduce-scatter); it exists for A/B parity and overhead comparisons.
func WithInputGradAllReduce() TrainOption { return dist.WithInputGradAllReduce() }

// WithOverlap toggles backward/communication overlap (default on):
// gradient buckets launch nonblocking allreduces as the backward pass
// produces them, hiding the exchange behind the remaining backward
// compute. Losses are bit-identical with overlap on or off; the knob
// exists for A/B timing comparisons.
func WithOverlap(on bool) TrainOption { return dist.WithOverlap(on) }

// WithBucketBytes sets the gradient-bucket size bound in bytes (default
// 256 KiB) at which an overlapped exchange launches.
func WithBucketBytes(n int) TrainOption { return dist.WithBucketBytes(n) }

// Train executes a real training run (actual forward/backward/SGD
// arithmetic on in-process PEs) under the given execution plan — the
// single entry point of the measured runtime. The strategy is a
// runtime value, so the advisor's pick can be executed directly:
//
//	pl, _ := paradl.ParsePlan("df:4x2")
//	res, err := paradl.Train(m, batches, pl, paradl.WithSeed(7), paradl.WithLR(0.05))
//
// Every plan reproduces the per-iteration losses of the serial plan
// within 1e-6 on the same batches (the §4.5.2 value-parity
// methodology), except that pipeline-family plans use per-microbatch
// batch-norm statistics (the GPipe semantics).
func Train(m *NetModel, batches []TrainBatch, pl Plan, opts ...TrainOption) (*TrainResult, error) {
	return dist.Run(m, batches, pl, opts...)
}

// Strategies lists all projectable strategies.
func Strategies() []Strategy { return core.Strategies() }

// TrainableStrategies lists every strategy the real runtime can
// execute — the projectable set plus the serial baseline and the
// executable-only data×pipeline hybrid.
func TrainableStrategies() []Strategy { return dist.Strategies() }

// ParseStrategy converts a name ("data", "df", …) into a Strategy.
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }
