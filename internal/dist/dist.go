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
	"slices"
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

// replica builds this PE's full replica by copying the run's canonical
// initial parameters: the snapshot's when resuming (initState), else the
// seed's draw, which every PE of every run of the same model geometry
// and seed in this process shares (initialParams). A resumed run draws
// nothing. Every PE copies the same parameters, so replicas start
// bit-identical; engines then carve their shards from the replica
// exactly as they would from a fresh one, which is what makes
// re-sharding under any plan a non-event.
func (c *runConfig) replica(m *nn.Model) (*nn.Network, error) {
	st := c.initState
	if st == nil {
		return nn.NewNetworkFrom(m, initialParams(m, c.seed))
	}
	net, err := nn.NewNetworkFrom(m, st.Params)
	if err != nil {
		return nil, fmt.Errorf("dist: checkpoint does not fit the model: %w", err)
	}
	return net, checkVelocities(net, st)
}

// draws is this process's memo of initial parameters: the last seed
// draw (nn.NewNetwork's) and the key it was drawn for. It holds at most
// one model's parameters — 9.5 MB for the repo benchmark's bench-fcnet
// — until a different key is drawn. A draw is never written after it
// is made, so PEs copy from it outside the lock, and a miss replaces
// params with a new draw rather than writing into the old one.
var draws struct {
	sync.Mutex
	key    []int64
	params []nn.Params
	misses int // draws made, read by the tests
}

// initialParams returns the seed's initial parameters for m, read-only:
// the memo's when its key matches, else a new draw. The first PE to miss
// draws under the lock and the PEs behind it wait and then share it, so
// a cold run draws once, not once per PE.
func initialParams(m *nn.Model, seed int64) []nn.Params {
	key := drawKey(m, seed)
	draws.Lock()
	defer draws.Unlock()
	if draws.params == nil || !slices.Equal(draws.key, key) {
		draws.misses++
		draws.key, draws.params = key, nn.NewNetwork(m, rand.New(rand.NewSource(seed))).Params
	}
	return draws.params
}

// drawKey is everything nn.NewNetwork's draw reads: the seed and, per
// layer, its kind and what the kind's parameters are drawn from — a
// conv's F, C, kernel and InSize (its weight σ reads C·∏In, so two
// models with equal weight shapes but different image sizes draw
// differently), an FC's F and InSize, a batch norm's C. A model's
// pointer or name never enters it. It restates what nn.NewNetwork
// reads, so TestDrawKeyCoversDraw nudges every layer field and fails
// when a nudge changes the draw but not the key.
func drawKey(m *nn.Model, seed int64) []int64 {
	key := []int64{seed}
	for i := range m.Layers {
		l := &m.Layers[i]
		key = append(key, int64(l.Kind))
		switch l.Kind {
		case nn.Conv:
			key = append(key, int64(l.F), int64(l.C), l.InSize(), int64(len(l.Kernel)))
			for _, k := range l.Kernel {
				key = append(key, int64(k))
			}
		case nn.FC:
			key = append(key, int64(l.F), l.InSize())
		case nn.BatchNorm:
			key = append(key, int64(l.C))
		}
	}
	return key
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

// gradsLike returns zeroed gradient buffers shaped like g's.
func gradsLike(g nn.Grads) nn.Grads {
	like := func(t *tensor.Tensor) *tensor.Tensor {
		if t == nil {
			return nil
		}
		return tensor.New(t.Shape()...)
	}
	return nn.Grads{W: like(g.W), B: like(g.B), Gamma: like(g.Gamma), Beta: like(g.Beta)}
}

// accumulateGrads adds one microbatch's gradients g into the running
// per-layer accumulator dst.
func accumulateGrads(dst *nn.Grads, g nn.Grads) {
	add := func(d, s *tensor.Tensor) {
		if s != nil {
			d.Add(s)
		}
	}
	add(dst.W, g.W)
	add(dst.B, g.B)
	add(dst.Gamma, g.Gamma)
	add(dst.Beta, g.Beta)
}
