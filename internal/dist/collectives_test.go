package dist

// Determinism and parity suite for the ring/tree collectives: the
// value-parity methodology (§4.5.2) needs every collective to be
// (a) bit-identical across repeated runs and across ranks of one run,
// (b) within reassociation distance of the reference ascending-rank
// (hub) summation order, at every width — power-of-two or not — and on
// sub-communicators.

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"paradl/internal/collective"
	"paradl/internal/tensor"
)

// collectiveWidths spans the shapes that exercise every code path:
// even/odd, power-of-two and not, and the widths the grid runners use.
var collectiveWidths = []int{2, 3, 4, 5, 8}

// ringSize comfortably exceeds ringMinElems (ring path); treeSize and
// smallSize stay below it (binomial tree).
const (
	ringSize  = 4 * ringMinElems
	smallSize = 100
	treeSize  = 16
)

// treeSizes take the binomial tree, up to the largest buffer it
// carries; allReduceSizes adds a ring-sized one, so it exercises both
// AllReduceSum algorithms.
var (
	treeSizes      = []int{treeSize, 64, smallSize, ringMinElems - 1}
	allReduceSizes = append(treeSizes, ringSize)
)

// rankInput builds rank's deterministic pseudo-random contribution.
func rankInput(rank, n int) *tensor.Tensor {
	t := tensor.New(n)
	rng := rand.New(rand.NewSource(int64(rank + 1)))
	d := t.Data()
	for i := range d {
		d[i] = rng.Float64() - 0.5
	}
	return t
}

// eachRank runs body on every rank of a fresh world and returns the
// per-rank results.
func eachRank(t *testing.T, p int, body func(c *Comm) *tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	out := make([]*tensor.Tensor, p)
	onWorld(NewWorld(p), func(c *Comm) { out[c.Rank()] = body(c) })
	return out
}

// onWorld runs body on every rank of w, one goroutine per PE, and
// waits for all of them — reusable on one world, whose mailboxes then
// already exist on the second call.
func onWorld(w *World, body func(c *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < w.p; r++ {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			body(c)
		}(w.Comm(r))
	}
	wg.Wait()
}

// hubSum is the reference reduction: ascending rank order, the
// association the old rank-0 hub used and the sequential baseline's
// natural order.
func hubSum(p, n int) *tensor.Tensor {
	sum := rankInput(0, n)
	for r := 1; r < p; r++ {
		sum.Add(rankInput(r, n))
	}
	return sum
}

// TestAllReduceDeterministicRepeatedRuns: at every width and on both
// the ring (large buffer) and tree (small buffer) paths, repeated runs
// produce bit-identical results, and all ranks of one run agree
// bit-for-bit.
func TestAllReduceDeterministicRepeatedRuns(t *testing.T) {
	for _, p := range collectiveWidths {
		for _, n := range allReduceSizes {
			first := eachRank(t, p, func(c *Comm) *tensor.Tensor {
				return c.AllReduceSum(rankInput(c.Rank(), n))
			})
			for rank := 1; rank < p; rank++ {
				if !first[rank].AllClose(first[0], 0) {
					t.Fatalf("p=%d n=%d: rank %d diverged from rank 0 within one run", p, n, rank)
				}
			}
			second := eachRank(t, p, func(c *Comm) *tensor.Tensor {
				return c.AllReduceSum(rankInput(c.Rank(), n))
			})
			for rank := 0; rank < p; rank++ {
				if !first[rank].AllClose(second[rank], 0) {
					t.Fatalf("p=%d n=%d: rank %d not bit-identical across runs", p, n, rank)
				}
			}
		}
	}
}

// TestAllReduceHubParity pins the ring/tree association orders to the
// reference ascending-rank order: for p ≤ 8 unit-scale inputs the
// difference is pure summation reassociation, orders of magnitude
// below the 1e-6 the value-parity tests tolerate.
func TestAllReduceHubParity(t *testing.T) {
	const reassocTol = 1e-12
	for _, p := range collectiveWidths {
		for _, n := range allReduceSizes {
			want := hubSum(p, n)
			got := eachRank(t, p, func(c *Comm) *tensor.Tensor {
				return c.AllReduceSum(rankInput(c.Rank(), n))
			})
			if d := got[0].MaxDiff(want); d > reassocTol || math.IsNaN(d) {
				t.Fatalf("p=%d n=%d: ring/tree vs hub order differs by %.3e > %g", p, n, d, reassocTol)
			}
		}
	}
}

// TestSubCommRingAllReduce: the ring path works over a non-contiguous
// sub-communicator (the segments of the §3.6 grids), with members that
// are neither rank-ordered world prefixes nor the whole world.
func TestSubCommRingAllReduce(t *testing.T) {
	const p = 6
	members := []int{1, 3, 5}
	results := make([]*tensor.Tensor, p)
	w := NewWorld(p)
	var wg sync.WaitGroup
	for _, r := range members {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			sub := w.Comm(rank).Sub(members)
			results[rank] = sub.AllReduceSum(rankInput(sub.Rank(), ringSize))
		}(r)
	}
	wg.Wait()
	want := hubSum(len(members), ringSize)
	for _, r := range members {
		if d := results[r].MaxDiff(want); d > 1e-12 {
			t.Fatalf("world rank %d: sub-communicator ring allreduce off by %.3e", r, d)
		}
		if !results[r].AllClose(results[members[0]], 0) {
			t.Fatalf("world rank %d diverged from rank %d", r, members[0])
		}
	}
}

// TestReduceScatterSum: every rank receives exactly its canonical
// (SplitSizes) chunk of the full sum, including uneven splits.
func TestReduceScatterSum(t *testing.T) {
	for _, p := range collectiveWidths {
		rows := p + 2 // uneven whenever p does not divide p+2
		cols := 3
		n := rows * cols
		want := hubSum(p, n).Reshape(rows, cols)
		got := eachRank(t, p, func(c *Comm) *tensor.Tensor {
			return c.ReduceScatterSum(rankInput(c.Rank(), n).Reshape(rows, cols), 0)
		})
		offs := tensor.SplitOffsets(rows, p)
		sizes := tensor.SplitSizes(rows, p)
		for rank := 0; rank < p; rank++ {
			wantChunk := want.Narrow(0, offs[rank], sizes[rank])
			if d := got[rank].MaxDiff(wantChunk); d > 1e-12 {
				t.Fatalf("p=%d rank %d: reduce-scatter chunk off by %.3e", p, rank, d)
			}
		}
	}
}

// TestReduceScatterSingleton: p=1 returns the input itself, the same
// degenerate-edge contract as AllReduceSum and AllGather.
func TestReduceScatterSingleton(t *testing.T) {
	w := NewWorld(1)
	x := rankInput(0, 12).Reshape(4, 3)
	if got := w.Comm(0).ReduceScatterSum(x, 0); got != x {
		t.Fatal("singleton reduce-scatter must return the input tensor unchanged")
	}
}

// TestAllGatherUnevenShards: the ring allgather preserves rank order
// when shard extents differ (remainder-bearing splits).
func TestAllGatherUnevenShards(t *testing.T) {
	const p = 3
	sizes := []int{2, 2, 1} // SplitSizes(5, 3)
	got := eachRank(t, p, func(c *Comm) *tensor.Tensor {
		sh := tensor.New(sizes[c.Rank()], 2)
		sh.Fill(float64(c.Rank() + 1))
		return c.AllGather(sh, 0)
	})
	for rank := 0; rank < p; rank++ {
		g := got[rank]
		if g.Dim(0) != 5 || g.Dim(1) != 2 {
			t.Fatalf("rank %d: gathered shape %v, want [5 2]", rank, g.Shape())
		}
		row := 0
		for src := 0; src < p; src++ {
			for i := 0; i < sizes[src]; i++ {
				if g.At(row, 0) != float64(src+1) {
					t.Fatalf("rank %d row %d: %g, want %d", rank, row, g.At(row, 0), src+1)
				}
				row++
			}
		}
	}
}

// TestAllReduceScalarWidths: the scalar tree path sums exactly at every
// width (integer inputs are associativity-proof, so any order must give
// the closed form) and agrees across ranks.
func TestAllReduceScalarWidths(t *testing.T) {
	for _, p := range collectiveWidths {
		vals := make([]float64, p)
		w := NewWorld(p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				vals[rank] = w.Comm(rank).AllReduceScalar(float64(rank + 1))
			}(r)
		}
		wg.Wait()
		want := float64(p*(p+1)) / 2
		for r := 0; r < p; r++ {
			if vals[r] != want {
				t.Fatalf("p=%d rank %d: scalar sum %g, want %g", p, r, vals[r], want)
			}
		}
	}
}

// snapshotRingSum replays, sequentially, the ring the view ring
// replaced: every PE snapshots its first send chunk, each
// reduce-scatter hop adds the receiver's own contribution INTO the
// received buffer (in + own) and forwards it, and the allgather
// circulates the reduced chunks unchanged. It is the bit-level
// reference for ringAllReduce's association order.
func snapshotRingSum(p, n int) *tensor.Tensor {
	offs, sizes := collective.Chunks(n, p)
	own := make([][]float64, p)
	cur := make([][]float64, p)
	for r := range own {
		own[r] = rankInput(r, n).Data()
		sc, _ := collective.RingReduceScatterStep(r, 0, p)
		cur[r] = append([]float64(nil), own[r][offs[sc]:offs[sc]+sizes[sc]]...)
	}
	for s := 0; s < p-1; s++ {
		recv := make([][]float64, p)
		for r := range own {
			_, rc := collective.RingReduceScatterStep(r, s, p)
			in := cur[(r+p-1)%p]
			for i, v := range own[r][offs[rc] : offs[rc]+sizes[rc]] {
				in[i] += v
			}
			recv[r] = in
		}
		cur = recv
	}
	// cur[r] is the fully reduced chunk r; every rank ends with all of them.
	sum := tensor.New(n)
	for r, chunk := range cur {
		copy(sum.Data()[offs[r]:], chunk)
	}
	return sum
}

// TestRingAllReduceMatchesSnapshotRing: the view ring adds the same two
// operands at every hop as the snapshot ring did (own + in for in +
// own), so every rank's result equals the replayed reference bit for
// bit — at every suite width and at sizes that leave uneven chunks.
func TestRingAllReduceMatchesSnapshotRing(t *testing.T) {
	for _, p := range collectiveWidths {
		for _, n := range []int{ringMinElems, 257, 4099, 1 << 18} {
			want := snapshotRingSum(p, n).Data()
			got := eachRank(t, p, func(c *Comm) *tensor.Tensor {
				return c.AllReduceSum(rankInput(c.Rank(), n))
			})
			for rank, res := range got {
				for i, v := range res.Data() {
					if v != want[i] {
						t.Fatalf("p=%d n=%d rank %d elem %d: view ring %.17g != snapshot ring %.17g", p, n, rank, i, v, want[i])
					}
				}
			}
		}
	}
}

// binomialSum replays, sequentially, the binomial tree's reduction: at
// distances d = 1, 2, 4, … every rank r with r mod 2d = 0 adds rank
// r+d's partial into its own, so rank 0 ends with the documented
// ((x₀+x₁) + (x₂+x₃)) + … It is the bit-level reference for
// treeAllReduce's association order.
func binomialSum(p, n int) []float64 {
	acc := make([][]float64, p)
	for r := range acc {
		acc[r] = rankInput(r, n).Data()
	}
	for d := 1; d < p; d *= 2 {
		for r := 0; r+d < p; r += 2 * d {
			for i, v := range acc[r+d] {
				acc[r][i] += v
			}
		}
	}
	return acc[0]
}

// TestTreeAllReduceMatchesBinomialOrder pins the tree path bit for bit:
// every buffer below ringMinElems, blocking and nonblocking, on the
// world and on a reversed sub-communicator that leaves world rank 0
// out, sums in binomialSum's order on every rank.
func TestTreeAllReduceMatchesBinomialOrder(t *testing.T) {
	calls := map[string]func(*Comm, *tensor.Tensor) *tensor.Tensor{
		"blocking":    (*Comm).AllReduceSum,
		"nonblocking": func(c *Comm, x *tensor.Tensor) *tensor.Tensor { return c.IAllReduceSum(x).Wait() },
	}
	for _, p := range collectiveWidths {
		members := make([]int, p) // world ranks p, p−1, …, 1
		for i := range members {
			members[i] = p - i
		}
		for _, n := range treeSizes {
			want := binomialSum(p, n)
			for name, call := range calls {
				for _, sub := range []bool{false, true} {
					got := make([]*tensor.Tensor, p)
					w := NewWorld(p)
					if sub {
						w = NewWorld(p + 1)
					}
					onWorld(w, func(c *Comm) {
						if sub {
							if c.Rank() == 0 {
								return
							}
							c = c.Sub(members)
						}
						got[c.Rank()] = call(c, rankInput(c.Rank(), n))
					})
					for rank, res := range got {
						for i, v := range res.Data() {
							if v != want[i] {
								t.Fatalf("p=%d n=%d %s sub=%v rank %d elem %d: %.17g != binomial order %.17g", p, n, name, sub, rank, i, v, want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestRingAllReduceBufferReuse pins the closing ack: the ring lends
// views of the caller's buffer to the successor, so the moment
// AllReduceSum or Handle.Wait returns the caller must be free to
// overwrite that buffer and launch the next collective on it. Every PE
// does exactly that for 200 rounds, alternating blocking and
// nonblocking calls; integer-valued inputs make the expected sums
// exact, and -race (CI's collective smoke) judges the view contract.
func TestRingAllReduceBufferReuse(t *testing.T) {
	const rounds, n = 200, 3*ringMinElems + 1
	for _, p := range []int{2, 3, 4} {
		eachRank(t, p, func(c *Comm) *tensor.Tensor {
			buf := tensor.New(n)
			bad := false // report once, but keep the ring's program order
			for round := 0; round < rounds; round++ {
				for i := range buf.Data() {
					buf.Data()[i] = float64(c.Rank() + round + i%7)
				}
				if round%2 == 0 {
					buf = c.AllReduceSum(buf)
				} else {
					buf = c.IAllReduceSum(buf).Wait()
				}
				for i, v := range buf.Data() {
					if want := float64(p*(round+i%7) + p*(p-1)/2); v != want && !bad {
						bad = true
						t.Errorf("p=%d rank %d round %d elem %d: %v, want %v", p, c.Rank(), round, i, v, want)
					}
				}
			}
			return nil
		})
	}
}

// TestRingAllReduceAllocatesNoPayload: the ring circulates views, so a
// 1 MiB allreduce at p=2 allocates only headers — under 4 KiB per PE
// per call, where the snapshot ring allocated a 512 KiB chunk.
func TestRingAllReduceAllocatesNoPayload(t *testing.T) {
	const p, n, rounds, ceiling = 2, 1 << 17, 8, 4 << 10
	w := NewWorld(p)
	bufs := make([]*tensor.Tensor, p)
	for r := range bufs {
		bufs[r] = rankInput(r, n)
	}
	run := func(rounds int) {
		onWorld(w, func(c *Comm) {
			for i := 0; i < rounds; i++ {
				c.AllReduceSum(bufs[c.Rank()])
			}
		})
	}
	run(1) // creates the mailboxes
	if perCall := allocBytes(func() { run(rounds) }) / (rounds * p); perCall >= ceiling {
		t.Fatalf("1 MiB ring allreduce allocates %d B per PE per call, ceiling %d", perCall, ceiling)
	}
}

// allocBytes returns the heap bytes allocated while fn runs (all
// goroutines: the PEs of a world allocate concurrently).
func allocBytes(fn func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}
