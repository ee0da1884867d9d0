package dist

import (
	"fmt"

	"paradl/internal/tensor"
)

// This file is the nonblocking collective layer: IAllReduceSum launches
// the SAME deterministic ring/tree algorithms as AllReduceSum on a
// per-operation worker goroutine and returns a Handle immediately, so
// gradient exchange can overlap the backward compute that follows it
// (the DDP-style bucketing of overlap.go). Isolation comes from mailbox
// streams: every launched operation derives a private (comm key, seq)
// stream for its traffic, so in-flight operations can never interleave
// with each other or with the program-ordered blocking traffic on the
// base stream. Because the algorithms and their association orders are
// untouched, an overlapped result is bit-identical to the blocking one
// — the property the determinism suite pins.

// Handle is the completion token of one nonblocking collective on one
// PE. It is owned by the goroutine that launched it (it is not safe for
// concurrent use), must be Waited exactly once before the PE finishes —
// runWorld fails the world with a clear error if a PE drops a handle
// without Wait, since that means the result was never synchronized —
// and Wait returns the collective's result exactly as the blocking call
// would have. A second Wait is a no-op returning the same tensor.
//
// Launches and Waits are communicator program order, like every other
// collective call: all members of a communicator must launch AND wait
// its operations in the same order (waiting h2 before h1 on one PE but
// h1 before h2 on another diverges the stream recycling and mismatches
// messages, exactly like issuing blocking collectives out of order).
type Handle struct {
	c      *Comm
	stream string
	done   chan struct{}
	res    *tensor.Tensor
	pan    any
	waited bool
}

// Wait blocks until the collective completes and returns its result —
// the tensor the blocking counterpart would have returned. The caller
// must use only the returned tensor (the launch took ownership of the
// input). If the operation failed, Wait re-panics the failure on the
// waiting PE so it is accounted to that PE like a blocking collective's
// failure. Waiting an already-waited handle returns the same result
// without blocking.
func (h *Handle) Wait() *tensor.Tensor {
	if h.waited {
		return h.res
	}
	<-h.done
	h.waited = true
	if h.c != nil {
		h.c.w.pending[h.c.worldRank(h.c.rank)].Add(-1)
		// The worker is done on this PE: its stream id may be recycled.
		// Peers still mid-operation are safe because each PE orders its
		// own sends/recvs of the old and any future use of the stream
		// through its own Wait, and mailboxes are FIFO.
		h.c.free = append(h.c.free, h.stream)
	}
	if h.pan != nil {
		panic(h.pan)
	}
	return h.res
}

// doneHandle wraps an already-available result (singleton communicators
// and other degenerate widths) — no goroutine, no pending accounting.
func doneHandle(t *tensor.Tensor) *Handle {
	done := make(chan struct{})
	close(done)
	return &Handle{done: done, res: t, waited: true}
}

// launch starts fn on a worker goroutine speaking over this operation's
// private mailbox stream — a recycled id from an already-Waited
// operation when one is free, a freshly minted one otherwise. Under the
// SPMD discipline every member of the communicator launches and waits
// its nonblocking operations in the same program order, so the stream
// ids agree across PEs and the workers pair up without negotiation. A
// panic inside the worker (a world abort, a shape error) is captured
// and re-thrown by Wait.
func (c *Comm) launch(fn func(op *Comm) *tensor.Tensor) *Handle {
	var stream string
	if n := len(c.free); n > 0 {
		stream = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		stream = fmt.Sprintf("nb:%s#%d", c.key, c.nseq)
		c.nseq++
	}
	op := &Comm{w: c.w, rank: c.rank, members: c.members, key: c.key, stream: stream}
	c.w.pending[c.worldRank(c.rank)].Add(1)
	h := &Handle{c: c, stream: stream, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		defer func() {
			if r := recover(); r != nil {
				h.pan = r
			}
		}()
		h.res = fn(op)
	}()
	return h
}

// IAllReduceSum is the nonblocking AllReduceSum: it takes ownership of
// t, starts the same size-switched ring/binomial-tree algorithm on
// a worker goroutine, and returns immediately. Handle.Wait yields the
// sum, bit-identical to the blocking call's.
func (c *Comm) IAllReduceSum(t *tensor.Tensor) *Handle {
	if c.Size() == 1 {
		return doneHandle(t)
	}
	return c.launch(func(op *Comm) *tensor.Tensor { return op.AllReduceSum(t) })
}
