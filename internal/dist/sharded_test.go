package dist

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"paradl/internal/core"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// Sharded weight update suite. The in-ring update — reduce-scatter, the
// owner steps its chunk, allgather of the parameter chunks — must be the
// replicated update it replaces, bit for bit: first at the exchanger,
// against a test-side "AllReduceSum, then step the whole tensor on every
// PE"; then through every engine that exchanges gradients, against the
// same engine with its sharding declarations dropped, which leaves the
// exchanger exactly that allreduce-then-replicated-step path.

// randBatches generates iters batches of n samples for m (data.Toy
// imports this package, so the internal tests roll their own).
func randBatches(m *nn.Model, iters, n int) []Batch {
	rng := rand.New(rand.NewSource(77))
	out := make([]Batch, iters)
	for i := range out {
		x := tensor.New(append([]int{n, m.InputChannels}, m.InputDims...)...).RandN(rng, 1)
		labels := make([]int, n)
		for j := range labels {
			labels[j] = rng.Intn(m.Classes)
		}
		out[i] = Batch{X: x, Labels: labels}
	}
	return out
}

// TestInRingUpdateMatchesAllReduceThenStep: over even and uneven chunks
// (n = 257, p = 3, 5), plain SGD and momentum, blocking and overlapped,
// three consecutive iterations of the in-ring update leave the parameter
// — and the Allgathered velocity chunks — equal to AllReduceSum followed
// by the whole-tensor step, on every rank.
func TestInRingUpdateMatchesAllReduceThenStep(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5} {
		for _, n := range []int{ringMinElems, ringMinElems + 1, 4099} {
			for _, mu := range []float64{0, 0.9} {
				for _, overlap := range []bool{false, true} {
					label := fmt.Sprintf("p=%d n=%d mu=%v overlap=%v", p, n, mu, overlap)
					eachRank(t, p, func(c *Comm) *tensor.Tensor {
						cfg := &runConfig{lr: 0.05, momentum: mu, overlap: overlap, bucketBytes: 1 << 10}
						step, ref := newStepper(cfg), newStepper(cfg)
						ex := newGradExchanger(c, step, cfg)
						o := ownedField{live: rankInput(100, n)}
						want := o.live.Clone()
						if ex.shard(&o); o.chunk == nil {
							t.Errorf("%s: a %d-element tensor was not declared to shard", label, n)
							return nil
						}
						for it := 0; it < 3; it++ {
							g := rankInput(10*it+c.Rank(), n)
							ref.step(want, c.AllReduceSum(g.Clone()))
							ex.push(&o, g)
							ex.drain()
							if !o.live.AllClose(want, 0) {
								t.Errorf("%s rank %d iter %d: in-ring update differs from allreduce-then-step", label, c.Rank(), it)
								return nil
							}
						}
						if mu != 0 {
							if v := o.velocity(step.mom); !v.AllClose(ref.mom.Velocity(want), 0) {
								t.Errorf("%s rank %d: gathered velocity chunks differ from the replicated velocity", label, c.Rank())
							}
							if step.mom.Velocity(o.live) != nil {
								t.Errorf("%s: a whole-tensor velocity exists beside the chunk", label)
							}
						}
						return nil
					})
				}
			}
		}
	}
}

// unshardedRun is the engine-level reference: drive's loop, minus hooks
// and checkpoints, over the plan's real engine — with every sharding
// declaration dropped from the ownership table after build, so each
// exchanged gradient is allreduced and its parameter stepped whole on
// every PE. It also reports how many tensors the real run would shard.
func unshardedRun(t *testing.T, m *nn.Model, batches []Batch, pl Plan, opts ...Option) (losses []float64, sharded int) {
	t.Helper()
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	pl = pl.normalized()
	entry := registry[pl.Strategy]
	eng, err := entry.engine(m, pl, entry.label, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	losses, err = runGrid(pl.P1, pl.P2, eng.resultRank, func(world, group, seg *Comm) ([]float64, error) {
		net, err := cfg.replica(m)
		if err != nil {
			return nil, err
		}
		pe := &peCtx{world: world, group: group, seg: seg, net: net, step: newStepper(&cfg)}
		iterate, own, err := eng.build(pe)
		if err != nil {
			return nil, err
		}
		n := 0
		for l := range own {
			for f := range own[l] {
				if own[l][f].chunk != nil {
					n++
					own[l][f].chunk = nil
				}
			}
		}
		mu.Lock()
		sharded += n
		mu.Unlock()
		var out []float64
		for bi := range batches {
			x, labels, weight := groupShard(&batches[bi], seg.Rank(), pl.P1)
			out = append(out, iterate(x, labels, weight))
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return losses, sharded
}

// TestShardedUpdateMatchesReplicatedStep: for every engine with a
// gradient exchange — data at p = 2, 3 (uneven chunks and batch shards)
// and 4, and the three hybrids — × {plain SGD, momentum} × overlap
// on/off × bucket {1 B: every tensor alone, the ring-sized ones sharded;
// 4 KiB; default: only the 640 KiB FC weight, 320 KiB per filter shard
// under df}, the loss series equals the unsharded reference's. The
// 3-class head leaves a 3-element bias: fewer elements than data:4 has
// PEs, exchanged alone at bucket 1.
func TestShardedUpdateMatchesReplicatedStep(t *testing.T) {
	m := FCNetShapedForTest(640, 3)
	batches := randBatches(m, 4, 8)
	for _, ps := range []string{"data:2", "data:3", "data:4", "df:2x2", "ds:2x2", "dp:2x2"} {
		pl, err := ParsePlan(ps)
		if err != nil {
			t.Fatal(err)
		}
		for _, mu := range []float64{0, 0.9} {
			for _, bb := range []int{1, 4 << 10, defaultBucketBytes} {
				opts := []Option{WithSeed(42), WithLR(0.05), WithMomentum(mu), WithBucketBytes(bb)}
				want, sharded := unshardedRun(t, m, batches, pl, append(opts, WithOverlap(false))...)
				if sharded == 0 {
					t.Fatalf("%s bucket=%d: no tensor is declared to shard, the comparison is vacuous", ps, bb)
				}
				for _, overlap := range []bool{false, true} {
					got, err := Run(m, batches, pl, append(opts, WithOverlap(overlap))...)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got.Losses[i] != want[i] {
							t.Fatalf("%s mu=%v bucket=%d overlap=%v iter %d: loss %.17g, replicated-step reference %.17g", ps, mu, bb, overlap, i, got.Losses[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestInRingUpdateAbortUnblocksPeers: a failure injected inside the
// in-ring update — rank 1's velocity chunk is mis-shaped, so its step
// between the ring's two phases panics — aborts the world: the other
// PEs, parked in the allgather waiting for rank 1's parameter chunk,
// unblock with errAborted, and the run reports the root cause.
func TestInRingUpdateAbortUnblocksPeers(t *testing.T) {
	const p, n = 3, 4 * ringMinElems
	for _, overlap := range []bool{false, true} {
		unblocked := make([]any, p)
		_, err := runWorld(p, 0, func(c *Comm) ([]float64, error) {
			defer func() {
				unblocked[c.Rank()] = recover()
				if r := unblocked[c.Rank()]; r != nil {
					panic(r)
				}
			}()
			cfg := &runConfig{lr: 0.05, momentum: 0.9, overlap: overlap, bucketBytes: 1 << 10}
			ex := newGradExchanger(c, newStepper(cfg), cfg)
			o := ownedField{live: rankInput(100, n)}
			ex.shard(&o)
			if c.Rank() == 1 {
				o.chunk.v = tensor.New(o.chunk.n + 1)
			}
			ex.push(&o, rankInput(c.Rank(), n))
			ex.drain()
			return nil, nil
		})
		if err == nil || !strings.Contains(err.Error(), "shape mismatch") {
			t.Fatalf("overlap=%v: want the injected shape mismatch as the root cause, got: %v", overlap, err)
		}
		for r, rec := range unblocked {
			if r != 1 && rec != errAborted {
				t.Errorf("overlap=%v: rank %d ended with %v, want errAborted", overlap, r, rec)
			}
		}
	}
}

// TestExchangerBufferReuse: the steady state of a training run — the
// same parameter and gradient tensors pushed iteration after iteration,
// the gradients overwritten the moment drain returns — for 200
// iterations, overlapped: small tensors packed (the kept flat buffer),
// a ring-sized one alone, a bucket-sized one updated inside the ring.
// Integer-valued gradients at lr 1 make the expected parameters exact;
// -race judges the buffer-ownership contract (whoever holds the
// parameter owns the gradient buffer; the exchanger has it from push to
// drain).
func TestExchangerBufferReuse(t *testing.T) {
	const iters = 200
	sizes := []int{10, 20, 8 * ringMinElems, 30, ringMinElems / 2, ringMinElems + 3}
	for _, p := range []int{2, 3, 4} {
		eachRank(t, p, func(c *Comm) *tensor.Tensor {
			grads := make([]*tensor.Tensor, len(sizes))
			for i, n := range sizes {
				grads[i] = tensor.New(n)
			}
			params := zerosLike(grads)
			ex := exchangerFor(c, true, params)
			for it := 0; it < iters; it++ {
				for i, g := range grads {
					for j := range g.Data() {
						g.Data()[j] = float64(c.Rank() + it%5 + (i+j)%7)
					}
					ex.push(&params[i], g)
				}
				ex.drain()
			}
			for i := range params {
				for j, v := range params[i].live.Data() {
					// Σ_it Σ_rank (rank + it%5 + (i+j)%7), negated by the lr-1 step.
					want := -float64(iters*p*(p-1)/2 + p*(iters/5)*(0+1+2+3+4) + iters*p*((i+j)%7))
					if v != want {
						t.Errorf("p=%d rank %d param %d[%d] = %v after %d iterations, want %v", p, c.Rank(), i, j, v, iters, want)
						return nil
					}
				}
			}
			return nil
		})
	}
}

// TestSteadyStateAllocations: once the first iteration has created the
// gradient buffers, accumulators and bucket buffers, no iteration of a
// training run allocates anything parameter-sized. On the bench-fcnet
// shape (8 MB of FC weights) iterations 2…8 stay under 1 MiB per PE —
// activations, patch tiles and headers — where a fresh zeroed dw per
// backward cost ≈ 11 MB per PE per iteration.
func TestSteadyStateAllocations(t *testing.T) {
	b := nn.NewBuilder("bench-fcnet-shaped", 4, []int{8, 8})
	b.Conv(8, 3, 1, 1).ReLU()
	b.Pool(nn.MaxPool, 2, 2, 0)
	b.FC(1024).ReLU()
	b.FC(1024).ReLU()
	b.FC(10)
	m := b.MustBuild()
	batches := randBatches(m, 8, 4)
	const ceiling = 1 << 20
	for _, pl := range []Plan{
		{Strategy: core.Serial},
		{Strategy: core.Data, P1: 2},
		{Strategy: core.Data, P1: 4},
		{Strategy: core.DataFilter, P1: 2, P2: 2},
		{Strategy: core.Pipeline, P2: 2},
	} {
		// The hook runs on the result PE after every iteration; the
		// counter is process-wide, so the delta between two calls is what
		// all PEs of the iteration in between allocated.
		var total []uint64
		_, err := Run(m, batches, pl, WithIterHook(func(int, float64) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			total = append(total, ms.TotalAlloc)
		}))
		if err != nil {
			t.Fatal(err)
		}
		pes := pl.normalized().P()
		for it := 1; it < len(total); it++ {
			if perPE := int(total[it]-total[it-1]) / pes; perPE >= ceiling {
				t.Errorf("%s: iteration %d allocates %d B per PE, ceiling %d", pl, it+1, perPE, ceiling)
			}
		}
	}
}
