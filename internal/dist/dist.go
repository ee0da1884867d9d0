// Package dist is the real partitioned-execution runtime of the ParaDL
// reproduction: it trains CNNs for real — actual forward/backward/SGD
// arithmetic through internal/tensor — with the model or data
// partitioned across in-process PEs exactly as the six parallelization
// strategies of §3 prescribe. Each PE is a goroutine owning its tensor
// shard per the plans in internal/strategy, and all cross-PE traffic
// flows through channel-based message passing (comm.go): gradient
// allreduce for data parallelism, halo exchange for spatial, activation
// allgather for filter, partial-sum allreduce for channel, and stage
// transfers for the pipeline.
//
// Models execute as compiled DAGs (nn.CompileGraph): ResNet-style
// Branch/shortcut layers read their tap point and merge additively
// into the main path under every strategy, with pipeline stage
// boundaries snapped to cuts that keep each residual block whole.
//
// The package exists to close the correctness loop of §4.5.2/§5.2:
// every strategy must reproduce the per-iteration losses of the serial
// baseline value by value (the parity tests pin this to 1e-6), so the
// oracle's projections and the executable semantics can never drift
// apart.
//
// The single entry point is plan-driven:
//
//	res, err := dist.Run(m, batches, dist.Plan{Strategy: core.DataFilter, P1: 4, P2: 2},
//	        dist.WithSeed(7), dist.WithLR(0.05))
//
// Run validates the plan and hands it to the one step driver
// (drive.go), which owns the whole per-PE run — replica, optimizer,
// the batch loop with fault injection, hooks, checkpoints and the
// iteration's trace frame. A strategy contributes only an engine: its
// Table 3 feasibility checks, a per-PE build that returns the
// iteration closure, and an ownership table (elastic_state.go) saying
// which slice of the canonical state each PE holds — the one table
// checkpoint gather and velocity restore both walk. Every parameter is
// stepped in one place, the PE's gradient exchanger (overlap.go), at
// its drain or inside the ring. The registry (registry.go) maps every
// strategy onto the three grid engines of §3/§3.6, one per Table 3
// family:
//
//	serial        — single-PE SGD, the baseline every strategy must match (1×1 corner of the Tensor engine)
//	data          — batch sharded over replicas, gradient Allreduce (§3.1; p2=1 edge of the Tensor engine)
//	spatial       — sample domain sharded, neighbour halo exchange (§3.2; p1=1 edge of ds)
//	filter        — output-channel shards, activation Allgather (§3.4; p1=1 edge of the Tensor engine)
//	channel       — input-channel shards, partial-sum Allreduce (§3.5; p1=1 edge of the Tensor engine)
//	pipeline      — contiguous layer stages, GPipe microbatching (§3.3; p1=1 edge of dp)
//	df / ds / dp  — §3.6 hybrids: p1 model-parallel groups × segmented exchange
//
// Plans round-trip through strings ("ds:4x2" ⇄ ParsePlan/String), so
// the advisor and the CLI can select strategies as runtime values.
package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"paradl/internal/nn"
	"paradl/internal/strategy"
	"paradl/internal/tensor"
)

// PEFailure reports the death of one PE mid-run: the failure WithFailAt
// injects, surfaced as the error of the whole (aborted) world. The
// elastic supervisor (RunElastic) matches it with errors.As to tell a
// recoverable PE loss from a configuration error, and measures its
// detection latency from At.
type PEFailure struct {
	PE   int       // world rank of the dead PE
	Iter int       // global iteration it died in
	At   time.Time // when the PE died (stamped at the panic site)
}

func (e *PEFailure) Error() string {
	return fmt.Sprintf("dist: PE %d died at iteration %d", e.PE, e.Iter)
}

// InfeasibleError reports that Run rejected a (model, batches, plan)
// combination before spawning any PE: the plan's Table 3 width limit, a
// pipeline depth without legal stage cuts, an FC-head constraint, or a
// batch smaller than the data-parallel group count. Nothing executed,
// so a measured-vs-projected join may skip the plan; every other Run
// error means a started world failed. Error() is the cause's message.
type InfeasibleError struct{ Err error }

func (e *InfeasibleError) Error() string { return e.Err.Error() }
func (e *InfeasibleError) Unwrap() error { return e.Err }

// Batch is one training step's input: samples [N, C, spatial...] plus
// integer class labels of length N.
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// Result reports one training run: the strategy executed, its width,
// and the loss of every iteration — the series the value-parity
// methodology compares across strategies. P1×P2 is the executed plan's
// grid shape — P1 data-parallel groups of P2 model-parallel PEs,
// P = P1·P2 — with the pure strategies on their degenerate edges
// (sequential 1×1, data p×1, channel 1×p, …).
type Result struct {
	Strategy string
	P        int
	P1, P2   int
	Losses   []float64
}

// replica builds this PE's full replica: parameters drawn from the
// seed (every PE draws the same ones, so replicas are bit-identical),
// then — when resuming — the canonical checkpoint parameters copied
// over them. The seed init still runs first so the model's RNG stream
// is consumed identically to a fresh run; engines then carve their
// shards from the restored replica exactly as they would from a fresh
// one, which is what makes re-sharding under any plan a non-event.
func (c *runConfig) replica(m *nn.Model) (*nn.Network, error) {
	net := nn.NewNetwork(m, rand.New(rand.NewSource(c.seed)))
	if c.initState != nil {
		if err := restoreParams(net, c.initState); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// runWorld spawns one goroutine per PE, runs body on each, and returns
// resultRank's per-iteration losses. A panic or error on any PE aborts
// the whole world (no deadlocked stragglers) and is reported once.
func runWorld(p, resultRank int, body func(c *Comm) ([]float64, error)) ([]float64, error) {
	w := NewWorld(p)
	results := make([][]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if err, ok := rec.(error); ok {
						if err == errAborted {
							return // a peer already recorded the root cause
						}
						var pf *PEFailure
						if errors.As(err, &pf) {
							// An injected death: keep the typed error so the
							// elastic supervisor can recognize it as
							// recoverable rather than a generic panic.
							w.fail(err)
							return
						}
					}
					w.fail(fmt.Errorf("dist: PE %d panicked: %v", rank, rec))
				}
			}()
			losses, err := body(w.Comm(rank))
			if err != nil {
				w.fail(fmt.Errorf("dist: PE %d: %w", rank, err))
				return
			}
			// A dropped Handle means a nonblocking collective's result was
			// never synchronized back — silently proceeding would train on
			// unreduced gradients, so the misuse fails the world loudly.
			if n := w.pending[rank].Load(); n != 0 {
				w.fail(fmt.Errorf("dist: PE %d finished with %d nonblocking collective handle(s) dropped without Wait", rank, n))
				return
			}
			results[rank] = losses
		}(r)
	}
	wg.Wait()
	if w.err != nil {
		return nil, w.err
	}
	return results[resultRank], nil
}

// checkBatches validates the preconditions every plan shares: the model
// must compile to an executable graph (Branch/shortcut layers included
// — the DAG executor runs them; only malformed taps are rejected), and
// every batch must match the model's input geometry and hold at least
// one sample per data-parallel group.
func checkBatches(m *nn.Model, batches []Batch, p1 int) error {
	if _, err := nn.CompileGraph(m); err != nil {
		return fmt.Errorf("dist: model %q does not compile to an executable graph: %w", m.Name, err)
	}
	for i := range batches {
		b := &batches[i]
		if b.X == nil || b.X.Rank() < 2 {
			return fmt.Errorf("dist: batch %d has no activation tensor", i)
		}
		if b.X.Dim(0) != len(b.Labels) {
			return fmt.Errorf("dist: batch %d has %d samples but %d labels", i, b.X.Dim(0), len(b.Labels))
		}
		want := append([]int{b.X.Dim(0), m.InputChannels}, m.InputDims...)
		if !tensor.EqualShapes(b.X.Shape(), want) {
			return fmt.Errorf("dist: batch %d shape %v does not match model input %v", i, b.X.Shape(), want)
		}
		if _, err := strategy.MicroBatches(b.X.Dim(0), p1); err != nil {
			return fmt.Errorf("dist: batch %d: %w", i, err)
		}
	}
	return nil
}

// accumulate folds src — a view the next backward overwrites — into the
// persistent accumulator dst, created on first use: a flush's first
// micro-batch overwrites what the last iteration left, later ones add.
func accumulate(dst, src *tensor.Tensor, first bool) *tensor.Tensor {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = tensor.New(src.Shape()...)
	}
	if first {
		copy(dst.Data(), src.Data())
	} else {
		dst.Add(src)
	}
	return dst
}

// accumulateGrads folds one microbatch's gradients into the running
// per-layer accumulator.
func accumulateGrads(dst *nn.Grads, g nn.Grads, first bool) {
	dst.W = accumulate(dst.W, g.W, first)
	dst.B = accumulate(dst.B, g.B, first)
	dst.Gamma = accumulate(dst.Gamma, g.Gamma, first)
	dst.Beta = accumulate(dst.Beta, g.Beta, first)
}
