package dist

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paradl/internal/collective"
	"paradl/internal/tensor"
)

// errAborted is panicked by blocked communication calls when another PE
// of the same world has already failed, so a single error tears the
// whole world down instead of deadlocking it.
var errAborted = errors.New("dist: world aborted by peer failure")

// AllReduceSum picks by buffer size between the two algorithms the
// analytic side prices with Hockney α–β terms in internal/collective:
//
//   - below ringMinElems: binomial tree — 2⌈log₂p⌉ whole-buffer hops,
//     best for latency-bound small tensors (BN statistics, biases);
//   - at and above ringMinElems: ring reduce-scatter + allgather —
//     2(p−1) rounds of m/p chunks, bandwidth-optimal for gradient-sized
//     buffers.
const ringMinElems = 256

// ringSized reports whether an n-element buffer travels the ring on p
// PEs: bandwidth-bound, and with at least one element per chunk.
func ringSized(n, p int) bool { return n >= ringMinElems && n >= p }

// message is one mailbox payload: a tensor, or (t == nil) a bare
// scalar, so scalar reductions never allocate a 1-element tensor.
type message struct {
	t *tensor.Tensor
	v float64
}

// World wires p in-process PEs together with buffered point-to-point
// channels — one mailbox per (sender, receiver) pair, created lazily on
// first use. Ring and tree collectives touch only O(p) of the p² pairs,
// so lazy creation keeps world setup O(p) instead of letting the
// mailbox matrix dominate at larger p. Every collective of the runtime
// (allreduce, allgather, halo exchange, pipeline stage transfer) is
// built from these two-sided messages, mirroring the message-passing
// structure of the MPI/NCCL execution the paper validates against
// (§5.1).
//
// Besides the base mailboxes there is a second, stream-tagged plane
// (tagged): every in-flight nonblocking collective gets its own (src,
// dst, stream) channels, so overlapped traffic can never interleave
// with — or be mismatched against — the program-ordered blocking
// traffic on the base plane.
//
// A PE waiting for a message polls before it sleeps (wait). The
// model-parallel plans exchange one small tensor per layer per step,
// and the peer's answer usually comes within microseconds: 86–98 % of
// the receives of data:2, filter:2, spatial:2 and channel:2 complete
// within the poll (BenchmarkEngineStep on a 2-vCPU Xeon). When every
// receive parked and the PE was woken through the scheduler, filter:2,
// channel:2 and spatial:2 kept only 149 % of the two cores busy;
// polling raises that to 187 %, and their runs take ×0.81 the time.
// The polling PE spends its core, so CPU seconds rise: about level on
// those three plans (user+sys median 23.2 → 23.7 s), +4–18 % over the
// whole BenchmarkEngineStep and +9 % per 30 s train_small bench run.
// The budget came from an ablation of BenchmarkEngineStep, eleven
// plans, eight interleaved rounds of 30 runs, read against parking at
// once: 20 µs gained ×0.86–0.94 on data:2, filter:2, spatial:2 and
// channel:2, 100 µs ×0.75–0.88 and 400 µs ×0.79–0.85; pipeline:2, whose
// stages wait out whole bubbles, read ×0.95–1.02, and the p = 4 plans,
// which run more PEs than cores, ×0.91–1.09 at every budget. 100 µs
// buys the longest budget's gain for less spent CPU. End to end, over
// alternating 30 s train_small pairs, modelpar_samples_per_s read ×1.11
// in a first set of 20 (19/20 wins, a gap inside the parent's quartile
// spread) and ×1.16 in a second set of 20 (20/20 wins, a gap of 1.4×
// the parent's quartile spread). Handle.Wait parks at once: polling
// there did not speed up data:2's overlapped gradient exchange.
type World struct {
	p     int
	depth int
	mail  []atomic.Pointer[chan message] // p×p base cells, row-major [src][dst]
	mu    sync.Mutex                     // serializes base mailbox creation
	// tagged holds the stream-tagged mailboxes (mailKey → chan message)
	// of nonblocking operations; sync.Map keeps steady-state loads
	// lock-free while concurrent first-use creation stays race-safe.
	tagged sync.Map
	// pending[r] counts world rank r's launched-but-unwaited nonblocking
	// handles; runWorld fails the world if a PE finishes with a nonzero
	// count (a dropped Handle means results were never synchronized).
	pending []atomic.Int64
	once    sync.Once
	// abort is closed on the first failure; err records its cause.
	abort chan struct{}
	err   error
}

// mailKey addresses one stream-tagged mailbox.
type mailKey struct {
	src, dst int
	stream   string
}

// NewWorld creates a world of p PEs.
func NewWorld(p int) *World {
	if p < 1 {
		panic(fmt.Sprintf("dist: world size %d < 1", p))
	}
	depth := 4 * p
	if depth < 64 {
		depth = 64
	}
	return &World{
		p:       p,
		depth:   depth,
		mail:    make([]atomic.Pointer[chan message], p*p),
		pending: make([]atomic.Int64, p),
		abort:   make(chan struct{}),
	}
}

// mailbox returns the src→dst channel of the given stream, creating it
// on first use. The base stream ("") lives in the p×p array with a
// double-checked atomic fast path; tagged streams live in the sync.Map.
func (w *World) mailbox(src, dst int, stream string) chan message {
	if stream == "" {
		cell := &w.mail[src*w.p+dst]
		if ch := cell.Load(); ch != nil {
			return *ch
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		if ch := cell.Load(); ch != nil {
			return *ch
		}
		ch := make(chan message, w.depth)
		cell.Store(&ch)
		return ch
	}
	key := mailKey{src: src, dst: dst, stream: stream}
	if ch, ok := w.tagged.Load(key); ok {
		return ch.(chan message)
	}
	ch, _ := w.tagged.LoadOrStore(key, make(chan message, w.depth))
	return ch.(chan message)
}

// waitBudget is how long a receive polls before it parks; the World
// doc comment gives the ablation that sized it.
const waitBudget = 100 * time.Microsecond

// wait returns the next message of ch, the one receive under every
// collective. It polls ch and abort without blocking, yielding the
// processor between polls, for up to waitBudget, and then parks in a
// blocking select. Yielding rather than spinning lets the peer it waits
// for run when the world has more PEs than processors. Abort is watched
// on every poll, so a failed peer unwinds a polling PE as promptly as a
// parked one.
func (w *World) wait(ch chan message) message {
	for start := time.Now(); time.Since(start) <= waitBudget; runtime.Gosched() {
		select {
		case m := <-ch:
			return m
		case <-w.abort:
			panic(errAborted)
		default:
		}
	}
	select {
	case m := <-ch:
		return m
	case <-w.abort:
		panic(errAborted)
	}
}

// fail records the first error and wakes every blocked PE.
func (w *World) fail(err error) {
	w.once.Do(func() {
		w.err = err
		close(w.abort)
	})
}

// Comm is one PE's handle onto a communicator: the whole world, or a
// sub-communicator over a subset of its ranks (Sub). Rank and Size are
// always relative to the communicator; members maps communicator ranks
// to world ranks (nil for the world itself).
//
// key is the communicator's deterministic identity — derived from its
// world-rank membership alone, so every member computes the same key
// without negotiation — and namespaces the mailbox streams of
// nonblocking collectives. nseq counts the distinct stream ids minted
// on this handle, and free recycles them: a Waited operation returns
// its stream id for the next launch, so the tagged mailbox plane stays
// bounded by the maximum number of operations in flight at once rather
// than growing with every launch. Under the runtime's SPMD discipline
// every member launches AND waits its nonblocking operations in the
// same program order, so the id sequence — and with it the (key, id)
// stream of one logical collective — agrees on all of its PEs, and
// channel FIFO order keeps a recycled stream's old traffic strictly
// ahead of its new traffic on every mailbox. Corollary: two DISTINCT
// Comm handles with the same membership (e.g. two separate Sub calls
// over the same ranks) must not have nonblocking operations in flight
// concurrently.
//
// Every receive of a Comm — Recv, the scalar receive of the tree and
// the ring's closing ack, and so every collective, halo exchange,
// pipeline transfer and nonblocking worker built on them — takes its
// message through the world's one wait: poll, then park (World).
type Comm struct {
	w       *World
	rank    int
	members []int
	key     string
	stream  string   // mailbox stream this handle's traffic uses ("" = base)
	nseq    int      // distinct nonblocking stream ids minted on this handle
	free    []string // Waited stream ids available for reuse (LIFO)
}

// Comm returns the world communicator handle of the given rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.p {
		panic(fmt.Sprintf("dist: rank %d out of range [0,%d)", rank, w.p))
	}
	return &Comm{w: w, rank: rank, key: "w"}
}

// worldRank translates a communicator rank to its world rank.
func (c *Comm) worldRank(r int) int {
	if c.members == nil {
		return r
	}
	return c.members[r]
}

// Sub returns a sub-communicator over the given ranks OF THIS
// communicator, in the given order: new rank i speaks as members[i].
// The caller must appear in members. Collectives on the result involve
// only its members, so disjoint groups — e.g. the model-parallel groups
// and segmented cross-groups of the §3.6 hybrids — proceed
// independently over the same world. Message matching between
// overlapping communicators relies on the SPMD discipline the runtime
// already assumes: every PE issues its communication calls in the same
// program order.
func (c *Comm) Sub(members []int) *Comm {
	if len(members) == 0 {
		panic("dist: empty sub-communicator")
	}
	world := make([]int, len(members))
	seen := make(map[int]bool, len(members))
	me := -1
	for i, r := range members {
		if r < 0 || r >= c.Size() {
			panic(fmt.Sprintf("dist: sub-communicator member %d out of range [0,%d)", r, c.Size()))
		}
		if seen[r] {
			panic(fmt.Sprintf("dist: duplicate sub-communicator member %d", r))
		}
		seen[r] = true
		world[i] = c.worldRank(r)
		if r == c.rank {
			me = i
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("dist: rank %d is not a member of the sub-communicator %v", c.rank, members))
	}
	var key strings.Builder
	key.WriteString("s")
	for _, r := range world {
		key.WriteByte(':')
		key.WriteString(strconv.Itoa(r))
	}
	return &Comm{w: c.w, rank: me, members: world, key: key.String()}
}

// Rank returns this PE's id in [0, Size) within the communicator.
func (c *Comm) Rank() int { return c.rank }

// WorldRank returns this PE's rank in the world communicator —
// invariant under Sub, so a sub-communicator still identifies the PE
// globally (the trace recorder keys its tracks by world rank).
func (c *Comm) WorldRank() int { return c.worldRank(c.rank) }

// Size returns the communicator size.
func (c *Comm) Size() int {
	if c.members == nil {
		return c.w.p
	}
	return len(c.members)
}

// send enqueues a message (or aborts with the world).
func (c *Comm) send(dst int, m message) {
	select {
	case c.w.mailbox(c.worldRank(c.rank), c.worldRank(dst), c.stream) <- m:
	case <-c.w.abort:
		panic(errAborted)
	}
}

// Send delivers a deep copy of t to dst's mailbox. Payloads are copied
// at the sender so a message is immutable in flight, like a buffer
// handed to a real interconnect. The collectives below use sendOwned
// instead: they hand buffers off or lend read-only views of them.
func (c *Comm) Send(dst int, t *tensor.Tensor) {
	c.send(dst, message{t: t.Clone()})
}

// sendOwned delivers t itself, without a copy, under one of two
// contracts. Ownership transfer — the halo, tree and reduce-scatter hops
// of a buffer that is handed off anyway: the sender must not read or
// write t afterwards and the receiver may do with it as it likes. View —
// the ring's chunks of the caller's buffers, AllGather's forwarded
// shards and the pipeline's stage outputs and input gradients, which
// are frame buffers: memory the sender keeps, which the receiver only
// ever reads, and the sender does not write the viewed region until it
// knows the receiver is done reading (ring and dataPipelineStep spell
// out how). Cloning is reserved for true aliasing boundaries (public
// Send, tree broadcast fan-out).
func (c *Comm) sendOwned(dst int, t *tensor.Tensor) {
	c.send(dst, message{t: t})
}

// sendScalar delivers a bare float64 with no tensor allocation.
func (c *Comm) sendScalar(dst int, v float64) {
	c.send(dst, message{v: v})
}

// Recv blocks until a tensor from src arrives (or the world aborts).
func (c *Comm) Recv(src int) *tensor.Tensor {
	return c.recv(src, false).t
}

// recvScalar blocks until a scalar from src arrives.
func (c *Comm) recvScalar(src int) float64 {
	return c.recv(src, true).v
}

// recv takes the next message from src's mailbox through the world's
// wait, and panics if its kind — scalar or tensor — is not the one the
// caller's collective expects: the two PEs are then running different
// collectives, and carrying on would mismatch every later message.
func (c *Comm) recv(src int, scalar bool) message {
	m := c.w.wait(c.w.mailbox(c.worldRank(src), c.worldRank(c.rank), c.stream))
	if (m.t == nil) != scalar {
		got, want := "scalar", "tensor"
		if scalar {
			got, want = want, got
		}
		panic(fmt.Sprintf("dist: world rank %d received a %s where a %s was expected (collective program order diverged)", c.worldRank(c.rank), got, want))
	}
	return m
}

// AllReduceSum returns the element-wise sum of t across all PEs, every
// PE receiving bit-identical values. It takes ownership of t: the
// buffer may be reduced in place and returned, so the caller must use
// only the returned tensor.
//
// Large buffers run the bandwidth-optimal ring reduce-scatter +
// allgather (2(p−1) chunk hops); small ones run a binomial reduce +
// broadcast tree (2⌈log₂p⌉ latency-bound hops). Both have a fixed,
// documented association order (internal/collective/order.go for the
// ring, treeAllReduce for the tree) independent of seeds and
// scheduling, so repeated runs are bit-identical and value parity vs
// the sequential baseline holds within the reassociation tolerance
// (§4.5.2).
func (c *Comm) AllReduceSum(t *tensor.Tensor) *tensor.Tensor {
	p := c.Size()
	if p == 1 {
		return t
	}
	if ringSized(t.Len(), p) {
		return c.ringAllReduce(t)
	}
	return c.treeAllReduce(t)
}

// ringAllReduce reduces t in place over the flat element range — the
// ring with nothing between its two phases and one buffer for both.
func (c *Comm) ringAllReduce(t *tensor.Tensor) *tensor.Tensor {
	c.ring(t.Data(), t.Data(), nil)
	return t
}

// ring runs the two ring phases over the flat element ranges of reduce
// and gather (equal lengths; the same buffer for a plain allreduce): a
// (p−1)-step reduce-scatter of reduce leaves this rank owning the fully
// reduced chunk `rank`; between, when set, then runs on this PE alone —
// the gradient exchanger's sharded weight update turns its gradient
// chunk into its parameter chunk there (overlap.go); and a (p−1)-step
// allgather circulates every rank's chunk `rank` of gather and writes
// it into place. Per PE it moves 2(p−1)·n/p elements, the
// bandwidth-optimal schedule.
//
// Buffer discipline: no payload is allocated or snapshotted. The ring
// circulates views (sendOwned) of the PEs' own buffers, the
// shared-memory analogue of an intra-node transport reading the peer's
// buffer directly: a reduce-scatter step sends a view of own chunk sc
// and adds the predecessor's view into own chunk rc; an allgather step
// sends a view of the chunk completed the step before and copies the
// predecessor's view into own chunk rc. A PE writes only its own
// buffers and only reads the views it receives. Two orderings keep a
// chunk from being written while the successor may still read it:
//
//   - inside the call, the ring's dependency chain: chunk k reaches this
//     PE for its allgather write only after travelling successor → … →
//     owner → … → predecessor, and the successor forwarded its partial
//     sum of k only after reading this PE's reduce-scatter view of k.
//     Within either phase a chunk is sent after its single write, and
//     between touches only chunk `rank`, which no view of this call has
//     named yet: the reduce-scatter never sends it, the allgather sends
//     it first thing afterwards;
//   - across the return, the closing ack: each PE tells its predecessor
//     it has read its last view — of either buffer: the ack follows the
//     last allgather read in program order, and every reduce-scatter
//     read came before that — and returns only after hearing the same
//     from its successor, so the caller (blocking, or through
//     Handle.Wait) gets back buffers no peer is still reading. The ack
//     travels on the collective's own stream, FIFO behind the data, so a
//     recycled stream sees it before any later traffic, and a world
//     abort unblocks the wait with errAborted like any other receive.
func (c *Comm) ring(reduce, gather []float64, between func()) {
	p := c.Size()
	offs, sizes := collective.Chunks(len(reduce), p)
	chunk := func(data []float64, i int) *tensor.Tensor {
		return tensor.FromSlice(data[offs[i]:offs[i]+sizes[i]], sizes[i])
	}
	next, prev := (c.rank+1)%p, (c.rank+p-1)%p
	for s := 0; s < p-1; s++ {
		sc, rc := collective.RingReduceScatterStep(c.rank, s, p)
		c.sendOwned(next, chunk(reduce, sc))
		in := c.Recv(prev).Data()
		own := reduce[offs[rc]:][:len(in)]
		for i, v := range in {
			own[i] += v
		}
	}
	if between != nil {
		between()
	}
	for s := 0; s < p-1; s++ {
		sc, rc := collective.RingAllGatherStep(c.rank, s, p)
		c.sendOwned(next, chunk(gather, sc))
		copy(gather[offs[rc]:offs[rc]+sizes[rc]], c.Recv(prev).Data())
	}
	c.sendScalar(prev, 0)
	c.recvScalar(next)
}

// treeAllReduce reduces small buffers up a binomial tree rooted at rank
// 0 and broadcasts the result back down it. The upward sends transfer
// ownership (partials are dead after the send); the downward hops clone
// so every PE returns a buffer it exclusively owns. Association order at
// the root: ((x₀+x₁) + (x₂+x₃)) + … — fixed by the tree shape alone.
func (c *Comm) treeAllReduce(t *tensor.Tensor) *tensor.Tensor {
	p := c.Size()
	acc := t
reduce:
	for d := 1; d < p; d *= 2 {
		switch {
		case c.rank%(2*d) == d:
			c.sendOwned(c.rank-d, acc)
			break reduce
		case c.rank%(2*d) == 0 && c.rank+d < p:
			acc.Add(c.Recv(c.rank + d))
		}
	}
	top := 1
	for top < p {
		top *= 2
	}
	for d := top / 2; d >= 1; d /= 2 {
		switch {
		case c.rank%(2*d) == 0 && c.rank+d < p:
			c.Send(c.rank+d, acc)
		case c.rank%(2*d) == d:
			acc = c.Recv(c.rank - d)
		}
	}
	return acc
}

// AllReduceScalar sums one float64 across all PEs on the binomial tree,
// exchanging bare scalars — no tensor allocation on any PE. The
// association order is the tree's, identical for every run.
func (c *Comm) AllReduceScalar(v float64) float64 {
	p := c.Size()
	if p == 1 {
		return v
	}
reduce:
	for d := 1; d < p; d *= 2 {
		switch {
		case c.rank%(2*d) == d:
			c.sendScalar(c.rank-d, v)
			break reduce
		case c.rank%(2*d) == 0 && c.rank+d < p:
			v += c.recvScalar(c.rank + d)
		}
	}
	top := 1
	for top < p {
		top *= 2
	}
	for d := top / 2; d >= 1; d /= 2 {
		switch {
		case c.rank%(2*d) == 0 && c.rank+d < p:
			c.sendScalar(c.rank+d, v)
		case c.rank%(2*d) == d:
			v = c.recvScalar(c.rank - d)
		}
	}
	return v
}

// ReduceScatterSum sums t element-wise across all PEs and returns only
// this rank's chunk of the result, split along axis in rank order with
// the canonical near-equal sizes (tensor.SplitSizes). It is the
// reduce-scatter half of the ring allreduce — the primitive the paper's
// footnote-2 filter-parallel optimization aggregates input gradients
// with — at (p−1) chunk hops per PE. Takes ownership of t; a singleton
// communicator returns t itself.
func (c *Comm) ReduceScatterSum(t *tensor.Tensor, axis int) *tensor.Tensor {
	p := c.Size()
	if p == 1 {
		return t
	}
	offs := tensor.SplitOffsets(t.Dim(axis), p)
	sizes := tensor.SplitSizes(t.Dim(axis), p)
	next, prev := (c.rank+1)%p, (c.rank+p-1)%p
	sc0, _ := collective.RingReduceScatterStep(c.rank, 0, p)
	cur := t.Narrow(axis, offs[sc0], sizes[sc0])
	for s := 0; s < p-1; s++ {
		_, rc := collective.RingReduceScatterStep(c.rank, s, p)
		c.sendOwned(next, cur)
		cur = c.Recv(prev)
		addRegion(cur, t, axis, 0, offs[rc], sizes[rc], false)
	}
	return cur
}

// AllGather concatenates every PE's shard along axis in rank order —
// the activation aggregation of filter parallelism and of the spatial
// trunk/classifier boundary (§4.5.1). All PEs receive identical bits.
// Shards circulate the ring unchanged — p−1 shard hops per PE instead
// of the p−1 full fan-out sends (each cloned) per PE of the old
// implementation. Takes ownership of t: the shard is forwarded without
// copying and with no closing ack, so a peer may still read it after
// the call returns, and it must not be mutated afterwards — a buffer the
// caller rewrites next step, such as a step-frame buffer, must not be
// handed over (the ownership rule of tensorStep, which gathers a
// copy: gatherShard). The returned concatenation is freshly allocated.
// A singleton communicator returns t itself, so the degenerate grid
// edges (p1=1 or p2=1) pay no copy.
func (c *Comm) AllGather(t *tensor.Tensor, axis int) *tensor.Tensor {
	p := c.Size()
	if p == 1 {
		return t
	}
	parts := make([]*tensor.Tensor, p)
	parts[c.rank] = t
	next, prev := (c.rank+1)%p, (c.rank+p-1)%p
	cur := t
	for s := 0; s < p-1; s++ {
		_, rc := collective.RingAllGatherStep(c.rank, s, p)
		c.sendOwned(next, cur)
		cur = c.Recv(prev)
		parts[rc] = cur
	}
	return tensor.Concat(axis, parts...)
}
