package dist

// Overlap determinism suite (collective level): nonblocking collectives
// must be bit-identical to their blocking counterparts at every width
// and on both algorithm paths (binomial tree, ring), including
// sub-communicators, several operations in flight at once, and the
// Handle misuse contracts. The training-level half of the suite —
// overlap-on vs overlap-off runs pinned loss-bit-identical — lives in
// overlap_train_test.go.

import (
	"strings"
	"sync"
	"testing"

	"paradl/internal/tensor"
)

// TestOverlapAllReduceBitIdentical: IAllReduceSum across widths and both
// algorithm regimes returns exactly the blocking AllReduceSum's
// bits on every rank.
func TestOverlapAllReduceBitIdentical(t *testing.T) {
	for _, p := range collectiveWidths {
		for _, n := range allReduceSizes {
			blocking := eachRank(t, p, func(c *Comm) *tensor.Tensor {
				return c.AllReduceSum(rankInput(c.Rank(), n))
			})
			overlapped := eachRank(t, p, func(c *Comm) *tensor.Tensor {
				return c.IAllReduceSum(rankInput(c.Rank(), n)).Wait()
			})
			for rank := 0; rank < p; rank++ {
				if !overlapped[rank].AllClose(blocking[rank], 0) {
					t.Fatalf("p=%d n=%d rank %d: nonblocking allreduce differs from blocking", p, n, rank)
				}
			}
		}
	}
}

// TestOverlapConcurrentOps: several nonblocking collectives in flight
// on one communicator at once — one per allReduceSizes entry, both
// algorithms — each land the same bits as the blocking calls issued
// one at a time.
func TestOverlapConcurrentOps(t *testing.T) {
	const p = 5
	input := func(rank, j int) *tensor.Tensor {
		return rankInput(rank*31+j, allReduceSizes[j])
	}
	blocking := make([][]*tensor.Tensor, p)
	eachRank(t, p, func(c *Comm) *tensor.Tensor {
		res := make([]*tensor.Tensor, len(allReduceSizes))
		for j := range allReduceSizes {
			res[j] = c.AllReduceSum(input(c.Rank(), j))
		}
		blocking[c.Rank()] = res
		return nil
	})
	overlapped := make([][]*tensor.Tensor, p)
	eachRank(t, p, func(c *Comm) *tensor.Tensor {
		hs := make([]*Handle, len(allReduceSizes))
		for j := range allReduceSizes {
			hs[j] = c.IAllReduceSum(input(c.Rank(), j))
		}
		res := make([]*tensor.Tensor, len(hs))
		for j, h := range hs {
			res[j] = h.Wait()
		}
		overlapped[c.Rank()] = res
		return nil
	})
	for rank := 0; rank < p; rank++ {
		for j := range allReduceSizes {
			if !overlapped[rank][j].AllClose(blocking[rank][j], 0) {
				t.Fatalf("rank %d op %d: concurrent nonblocking result differs from blocking", rank, j)
			}
		}
	}
}

// TestOverlapSubCommunicators: the §3.6 grid layout with nonblocking
// operations in flight on the group and the segment of each PE
// SIMULTANEOUSLY — the exact concurrency pattern of the data+spatial
// engine's two bucketed exchanges — still matches the blocking results.
func TestOverlapSubCommunicators(t *testing.T) {
	const p = 4
	groupOf := func(rank int) []int { return []int{rank / 2 * 2, rank/2*2 + 1} }
	segOf := func(rank int) []int { return []int{rank % 2, rank%2 + 2} }
	type pair struct{ g, s *tensor.Tensor }
	run := func(overlap bool) []pair {
		w := NewWorld(p)
		out := make([]pair, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c := w.Comm(rank)
				group, seg := c.Sub(groupOf(rank)), c.Sub(segOf(rank))
				a := rankInput(rank, smallSize)
				b := rankInput(rank+100, ringSize)
				if overlap {
					hg, hs := group.IAllReduceSum(a), seg.IAllReduceSum(b)
					out[rank] = pair{g: hg.Wait(), s: hs.Wait()}
					return
				}
				out[rank] = pair{g: group.AllReduceSum(a), s: seg.AllReduceSum(b)}
			}(r)
		}
		wg.Wait()
		return out
	}
	blocking, overlapped := run(false), run(true)
	for rank := 0; rank < p; rank++ {
		if !overlapped[rank].g.AllClose(blocking[rank].g, 0) {
			t.Fatalf("rank %d: group result differs under overlap", rank)
		}
		if !overlapped[rank].s.AllClose(blocking[rank].s, 0) {
			t.Fatalf("rank %d: segment result differs under overlap", rank)
		}
	}
}

// TestOverlapStreamRecycling: Waited operations return their mailbox
// stream to the launcher, so the tagged mailbox plane stays bounded by
// the maximum number of operations in flight — not by the total number
// of launches — across arbitrarily long runs.
func TestOverlapStreamRecycling(t *testing.T) {
	const p, iters = 4, 50
	w := NewWorld(p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.Comm(rank)
			for i := 0; i < iters; i++ {
				c.IAllReduceSum(rankInput(rank, ringSize)).Wait()
			}
			if c.nseq != 1 {
				t.Errorf("rank %d minted %d stream ids for serial ops, want 1", rank, c.nseq)
			}
		}(r)
	}
	wg.Wait()
	entries := 0
	w.tagged.Range(func(any, any) bool { entries++; return true })
	// One op in flight at a time: one stream over O(p) ring pairs —
	// nowhere near iters×p.
	if entries > 4*p {
		t.Fatalf("tagged mailbox plane grew to %d entries over %d serial ops (leak)", entries, iters)
	}
}

// TestOverlapHandleDoubleWait: a second Wait is a no-op returning the
// same tensor without blocking, on both real and degenerate handles.
func TestOverlapHandleDoubleWait(t *testing.T) {
	eachRank(t, 2, func(c *Comm) *tensor.Tensor {
		h := c.IAllReduceSum(rankInput(c.Rank(), treeSize))
		first := h.Wait()
		if second := h.Wait(); second != first {
			t.Errorf("rank %d: second Wait returned a different tensor", c.Rank())
		}
		return nil
	})
	w := NewWorld(1)
	x := rankInput(0, 8)
	h := w.Comm(0).IAllReduceSum(x)
	if h.Wait() != x || h.Wait() != x {
		t.Fatal("singleton handle must return the input on every Wait")
	}
}

// TestOverlapDroppedHandleFails: a PE that finishes its run with a
// launched-but-unwaited handle fails the world with a clear message —
// a dropped handle means gradients were never synchronized.
func TestOverlapDroppedHandleFails(t *testing.T) {
	_, err := runWorld(2, 0, func(c *Comm) ([]float64, error) {
		c.IAllReduceSum(rankInput(c.Rank(), treeSize)) // dropped!
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "without Wait") {
		t.Fatalf("dropped handle must fail the world with a Wait message, got: %v", err)
	}
}

// TestOverlapAbortUnblocksWait: a peer failure aborts an in-flight
// nonblocking collective instead of deadlocking the Wait, and the root
// cause is reported.
func TestOverlapAbortUnblocksWait(t *testing.T) {
	_, err := runWorld(2, 0, func(c *Comm) ([]float64, error) {
		if c.Rank() == 0 {
			panic("injected overlap failure")
		}
		h := c.IAllReduceSum(rankInput(c.Rank(), ringSize))
		h.Wait() // must abort, not hang: rank 0 never launches its op
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "injected overlap failure") {
		t.Fatalf("want the injected failure as the root cause, got: %v", err)
	}
}

// TestRingAllReduceAbortUnblocksAckWait: a PE parked on the ring's
// closing ack — all data hops done, waiting to hear that its successor
// has read its last view — aborts with the world instead of hanging.
// Rank 0 plays the p=2 ring's data hops by hand and fails before
// acknowledging.
func TestRingAllReduceAbortUnblocksAckWait(t *testing.T) {
	_, err := runWorld(2, 0, func(c *Comm) ([]float64, error) {
		if c.Rank() == 1 {
			c.AllReduceSum(rankInput(1, ringSize))
			return nil, nil
		}
		for hop := 0; hop < 2; hop++ { // one reduce-scatter, one allgather
			c.sendOwned(1, tensor.New(ringSize/2))
			c.Recv(1)
		}
		panic("injected failure before the ack")
	})
	if err == nil || !strings.Contains(err.Error(), "injected failure before the ack") {
		t.Fatalf("want the injected failure as the root cause, got: %v", err)
	}
}

// exchangerFor builds one PE's gradient exchanger with a 1 KiB bucket,
// stepping plain SGD at lr 1 — so a zero parameter ends as minus its
// gradient's cross-PE sum — and declares every parameter to it the way
// an engine's build does.
func exchangerFor(c *Comm, overlap bool, params []ownedField) *gradExchanger {
	cfg := &runConfig{lr: 1, overlap: overlap, bucketBytes: 1 << 10}
	ex := newGradExchanger(c, newStepper(cfg), cfg)
	for i := range params {
		ex.shard(&params[i])
	}
	return ex
}

// zerosLike returns one held zero parameter per gradient.
func zerosLike(gs []*tensor.Tensor) []ownedField {
	ws := make([]ownedField, len(gs))
	for i, g := range gs {
		ws[i].live = tensor.New(g.Shape()...)
	}
	return ws
}

// TestExchangerOversizedTensorTravelsAlone: a tensor of bucketBytes or
// more is never packed — push first flushes the small tensors queued
// before it as their own packed bucket, in push order, then exchanges
// the big one by itself in its own backing array, updating its
// parameter inside the ring; the tensors after it start a fresh bucket.
// Every parameter still ends stepped by the cross-PE gradient sum.
func TestExchangerOversizedTensorTravelsAlone(t *testing.T) {
	const p, big = 2, 4 * ringMinElems // 8 KiB against the 1 KiB bucket
	for _, overlap := range []bool{false, true} {
		eachRank(t, p, func(c *Comm) *tensor.Tensor {
			gs := []*tensor.Tensor{rankInput(c.Rank(), 10), rankInput(c.Rank(), 20), rankInput(c.Rank(), big), rankInput(c.Rank(), 30)}
			ws := zerosLike(gs)
			ex := exchangerFor(c, overlap, ws)
			backing, wBacking := &gs[2].Data()[0], &ws[2].live.Data()[0]
			for i := range gs {
				ex.push(&ws[i], gs[i])
			}
			if len(ex.flights) != 2 || len(ex.queued) != 1 || ex.queued[0].g != gs[3] {
				t.Errorf("overlap=%v: %d flights, %d queued after push; want the small bucket and the big tensor in flight, the last tensor queued", overlap, len(ex.flights), len(ex.queued))
				return nil
			}
			if small := ex.flights[0].pairs; len(small) != 2 || small[0].g != gs[0] || small[1].g != gs[1] || ex.flights[0].inRing {
				t.Errorf("overlap=%v: first flight is not the two small tensors in push order, packed", overlap)
			}
			if alone := ex.flights[1]; len(alone.pairs) != 1 || alone.pairs[0].g != gs[2] || !alone.inRing {
				t.Errorf("overlap=%v: the oversized tensor was not exchanged by itself, inside the ring", overlap)
			}
			ex.drain()
			if &gs[2].Data()[0] != backing || &ws[2].live.Data()[0] != wBacking {
				t.Errorf("overlap=%v: oversized gradient or parameter moved to a new backing array", overlap)
			}
			for i, n := range []int{10, 20, big, 30} {
				// p=2 sums are commutative, hence exact in either order.
				want := hubSum(p, n)
				want.Scale(-1)
				if !ws[i].live.AllClose(want, 0) {
					t.Errorf("overlap=%v rank %d: parameter %d was not stepped by the cross-PE gradient sum", overlap, c.Rank(), i)
				}
			}
			return nil
		})
	}
}

// TestExchangerOversizedTensorAllocatesNoFlatBuffer: exchanging a
// 1 MiB gradient behind a few tiny ones allocates headers only — under
// 4 KiB per PE per exchange — where packing it cost a 1 MiB flat buffer
// on top of the ring's chunk; the tiny packed bucket's buffer is kept
// from the first exchange on. Averaged over rounds, so a stray
// allocation elsewhere in the test binary (the counter is process-wide)
// cannot trip the ceiling.
func TestExchangerOversizedTensorAllocatesNoFlatBuffer(t *testing.T) {
	const p, big, rounds, ceiling = 2, 1 << 17, 8, 4 << 10
	w := NewWorld(p)
	grads := make([][]*tensor.Tensor, p)
	params := make([][]ownedField, p)
	for r := range grads {
		grads[r] = []*tensor.Tensor{rankInput(r, 10), rankInput(r, 20), rankInput(r, big), rankInput(r, 30)}
		params[r] = zerosLike(grads[r])
	}
	run := func(rounds int) {
		onWorld(w, func(c *Comm) {
			ex := exchangerFor(c, false, params[c.Rank()])
			for i := 0; i < rounds; i++ {
				for j, g := range grads[c.Rank()] {
					ex.push(&params[c.Rank()][j], g)
				}
				ex.drain()
			}
		})
	}
	run(1) // creates the mailboxes
	if perPE := allocBytes(func() { run(rounds) }) / (rounds * p); perPE >= ceiling {
		t.Fatalf("exchanging a 1 MiB gradient allocates %d B per PE, ceiling %d", perPE, ceiling)
	}
}
