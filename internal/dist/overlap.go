package dist

import (
	"paradl/internal/collective"
	"paradl/internal/nn"
	"paradl/internal/tensor"
	"paradl/internal/trace"
)

// defaultBucketBytes is the default gradient-bucket capacity (DDP-style
// size bound): gradients queue as their producing layer's backward
// completes, and a bucket's exchange launches the moment the queued
// bytes reach this bound, overlapping the backward compute of the
// layers below. 256 KiB coalesces the whole gradient set of the toy zoo
// into a single ring allreduce while still splitting real-model-scale
// exchanges into multiple in-flight buckets. It is also the size from
// which a single tensor is exchanged by itself, in place, instead of
// being packed (push) — and, ring-sized, updated inside the ring (flush).
const defaultBucketBytes = 256 << 10

// BenchOverlapBucketBytes is the gradient-bucket size every toy-scale
// overlap A/B surface pins (the -measured table, the PHASES artefact,
// paradl -train -overlap, the trace/overlap tests). The default 256 KiB
// bucket targets real-model-scale gradients and never fills on the toy
// zoo (~84 KB of gradients), so at the default the on/off pair would
// compare identical executions; 8 KiB forces buckets to fill
// mid-backward, so the A/B isolates exactly the nonblocking launch.
const BenchOverlapBucketBytes = 8 << 10

// gradExchanger is the bucketed gradient exchange every engine's
// cross-group reduction goes through, and the one place the optimizer
// is applied: every parameter of a run is stepped here, at drain or
// inside the ring. (Parameter, gradient) pairs — the parameter named by
// its row of the PE's ownership table — are pushed in backward order
// (layer l's as soon as its backward completes); full buckets launch —
// nonblocking, overlapping the backward of the layers below, when
// overlap is on; blocking at the same flush points when it is off; the
// tail bucket at drain blocking in both modes, no compute being left to
// hide behind — and drain steps every parameter from its reduced
// gradient. Both modes form identical buckets and run identical
// collectives, so their results are bit-identical — the overlap A/B the
// determinism suite pins. A layer whose op already synchronized its
// gradients (a batch norm with LayerState.Sync set) has them held
// instead of pushed: they join no bucket, and drain steps them as they
// are (take).
//
// Who owns a gradient buffer, and until when: the tensors pushed belong
// to whoever holds the parameter (nn.Network.GradBuffers, a weightShard,
// a pipeline stage's accumulator) and persist across iterations. From
// push until drain returns the exchanger has them — a worker goroutine
// may be summing into them, or lending views of them to ring peers —
// and afterwards they hold nothing to rely on (one updated inside the
// ring is reduced in this PE's chunk only); the next backward overwrites
// them. A pushed parameter must not be read before drain either: the
// in-ring update rewrites it while the backward continues below.
//
// On a singleton communicator the gradients are already global: the
// same calls degenerate to "step at drain, no traffic".
type gradExchanger struct {
	c           *Comm
	step        *stepper
	overlap     bool
	bucketBytes int
	queued      []gradPair
	queuedBytes int
	held        []gradPair // already global: stepped at drain, never exchanged
	// flights are this iteration's buckets in launch order. Bucket
	// boundaries depend on push order and sizes only, so the slots are
	// reused across iterations (nextFlight), flat buffers included.
	flights []flight
	tr      *trace.PE // this PE's tracer; nil when tracing is off
}

// gradPair is one held parameter and the gradient that updates it.
type gradPair struct {
	o *ownedField
	g *tensor.Tensor
}

// flight is one launched bucket.
type flight struct {
	pairs  []gradPair
	buf    []float64      // flat buffer of a packed (multi-tensor) bucket
	res    *tensor.Tensor // the reduced bucket, once known
	h      *Handle        // nil when the exchange already ran blocking at flush
	tok    int64          // trace flight token of the nonblocking launch
	inRing bool           // its parameter was updated inside the ring
}

// paramChunk is the ownership table's qualifier for a parameter that is
// updated inside the ring (flush): of the tensor live a PE holds, ring
// rank r steps the flat chunk [off, off+n) — the chunk the
// reduce-scatter leaves on r — and under momentum holds that chunk of
// the velocity and nothing else of it.
type paramChunk struct {
	ring   *Comm
	off, n int
	w      *tensor.Tensor // view of live's chunk
	v      *tensor.Tensor // its velocity; nil until seeded or first stepped (≡ zeros)
}

// newGradExchanger returns one PE's exchanger over c, stepping with step.
func newGradExchanger(c *Comm, step *stepper, cfg *runConfig) *gradExchanger {
	bb := cfg.bucketBytes
	if bb < 1 {
		bb = 1 // flush every tensor by itself
	}
	return &gradExchanger{c: c, step: step, overlap: cfg.overlap, bucketBytes: bb, tr: cfg.trace.PE(c.WorldRank())}
}

// shard declares, while the engine builds its ownership table, that the
// parameter o.live will be pushed into this exchanger. If its gradient
// will travel alone on the ring — bucketBytes or more, so push never
// packs it, and ringSized, so the collective has chunks — the parameter
// is updated inside the ring and o.chunk says which chunk of it (and of
// its velocity) this PE owns: the one record flush, seedVelocities and
// gatherState read. Everything else is stepped replicated.
func (ex *gradExchanger) shard(o *ownedField) {
	if o.live == nil {
		return
	}
	n, p, r := o.live.Len(), ex.c.Size(), ex.c.Rank()
	if p == 1 || 8*n < ex.bucketBytes || !ringSized(n, p) {
		return
	}
	offs, sizes := collective.Chunks(n, p)
	o.chunk = &paramChunk{ring: ex.c, off: offs[r], n: sizes[r],
		w: tensor.FromSlice(o.live.Data()[offs[r]:offs[r]+sizes[r]], sizes[r])}
}

// push queues one parameter's gradient for exchange, flushing the
// bucket whenever the size bound is reached; a gradient that is
// bucket-sized by itself first flushes whatever is queued, so it is
// exchanged alone. An absent field of the layer (nil live tensor, nil
// gradient) is skipped.
func (ex *gradExchanger) push(o *ownedField, g *tensor.Tensor) {
	if o.live == nil || g == nil {
		return
	}
	o.live.MustSameShape(g)
	b := 8 * g.Len()
	if b >= ex.bucketBytes {
		ex.flush(ex.overlap) // g travels alone, in place: see flush
	}
	ex.queued = append(ex.queued, gradPair{o, g})
	ex.queuedBytes += b
	if ex.queuedBytes >= ex.bucketBytes {
		ex.flush(ex.overlap)
	}
}

// adopt declares, while the engine builds, every field of a layer's
// ownership row that take will push (see shard); the held fields of a
// layer whose op runs synchronized are stepped whole.
func (ex *gradExchanger) adopt(st *nn.LayerState, row *[4]ownedField) {
	if st.Sync == nil {
		for f := range row {
			ex.shard(&row[f])
		}
	}
}

// take hands over one layer's gradients g, written by its op in state
// st, once that op has run; row is the layer's ownership row. It is the
// one rule the Tensor and Spatial frames follow for every layer: the
// gradients are pushed for exchange, unless the op synchronized them
// itself (st.Sync: a batch norm sums them over the PEs that split its
// batch, so they are already global) — those are held, unexchanged.
// drain steps both kinds.
func (ex *gradExchanger) take(st *nn.LayerState, row *[4]ownedField, g *nn.Grads) {
	if st.Sync == nil {
		ex.pushGrads(row, g)
		return
	}
	for f, t := range [4]*tensor.Tensor{g.W, g.B, g.Gamma, g.Beta} {
		if row[f].live != nil && t != nil {
			ex.held = append(ex.held, gradPair{&row[f], t})
		}
	}
}

// pushGrads queues every present field of one layer's ownership row.
func (ex *gradExchanger) pushGrads(row *[4]ownedField, g *nn.Grads) {
	for f, t := range [4]*tensor.Tensor{g.W, g.B, g.Gamma, g.Beta} {
		ex.push(&row[f], t)
	}
}

// nextFlight returns this iteration's next flight slot, keeping the
// pair list and flat buffer the same bucket used the iteration before.
func (ex *gradExchanger) nextFlight() *flight {
	if n := len(ex.flights); n < cap(ex.flights) {
		ex.flights = ex.flights[:n+1]
	} else {
		ex.flights = append(ex.flights, flight{})
	}
	fl := &ex.flights[len(ex.flights)-1]
	*fl = flight{pairs: fl.pairs[:0], buf: fl.buf, tok: -1}
	return fl
}

// flush launches the exchange of the queued bucket — nonblocking when
// async is set (a mid-backward bucket with compute left to hide
// behind), blocking otherwise; the collective is the same either way,
// so the two modes cannot diverge by a bit. It takes one of three
// forms, chosen by what is queued and never by a knob:
//
//   - several tensors: packed into one flat buffer in push order, so the
//     bucket costs one allreduce instead of one per tensor; drain
//     unpacks the sums and steps every parameter, replicated;
//   - one tensor: allreduced in its own backing array — no pack/unpack
//     copies — and stepped replicated at drain;
//   - one tensor declared to shard: the paper's WU/p. The gradient is
//     reduce-scattered; between the ring's two phases this PE steps its
//     chunk of the parameter from its reduced chunk of the gradient; the
//     allgather then circulates the updated PARAMETER chunks. Bytes on
//     the wire equal the allreduce's (RS + AG = AR) and every element
//     sees the arithmetic of a replicated step, so nothing moves by a
//     bit — each PE just touches 1/p of the parameter. Comm.ring says
//     why its closing ack still orders the last read of both buffers.
func (ex *gradExchanger) flush(async bool) {
	if len(ex.queued) == 0 {
		return
	}
	fl := ex.nextFlight()
	fl.pairs = append(fl.pairs, ex.queued...)
	ex.queued = ex.queued[:0]
	n := ex.queuedBytes / 8
	ex.queuedBytes = 0
	if ex.c.Size() == 1 {
		return // already global: nothing to exchange, drain steps the pairs
	}
	// The synchronous flush cost — pack plus launch (async) or pack plus
	// the blocking exchange, in-ring update included — is a collective
	// span; the caller's phase (usually compute-backward) is restored on
	// the way out. The async in-flight window, again with its in-ring
	// update, lands at drain.
	ph := trace.CollectiveWait
	if async {
		ph = trace.CollectiveLaunch
	}
	prev := ex.tr.Begin(ph)
	o, g := fl.pairs[0].o, fl.pairs[0].g
	var exchange func(op *Comm) *tensor.Tensor
	if ch := o.chunk; ch != nil && len(fl.pairs) == 1 {
		fl.inRing = true
		gd, wd := g.Data(), o.live.Data()
		own := tensor.FromSlice(gd[ch.off:ch.off+ch.n], ch.n)
		exchange = func(op *Comm) *tensor.Tensor {
			op.ring(gd, wd, func() { ex.step.stepChunk(ch, own) })
			return g
		}
	} else {
		flat := g
		if len(fl.pairs) > 1 {
			if cap(fl.buf) < n {
				fl.buf = make([]float64, n)
			}
			fl.buf = fl.buf[:n]
			off := 0
			for _, pr := range fl.pairs {
				off += copy(fl.buf[off:], pr.g.Data())
			}
			flat = tensor.FromSlice(fl.buf, n)
		}
		exchange = func(op *Comm) *tensor.Tensor { return op.AllReduceSum(flat) }
	}
	if async {
		fl.h = ex.c.launch(exchange)
		fl.tok = ex.tr.Flight()
	} else {
		fl.res = exchange(ex.c)
	}
	ex.tr.Begin(prev)
}

// drain flushes the tail bucket — blocking: at the pre-step barrier
// there is no backward compute left to overlap, so a worker goroutine
// would be pure overhead — waits every in-flight collective, unpacks
// each reduced bucket back into its gradient tensors, and steps every
// parameter that was not already updated inside the ring, the held ones
// last. The step runs under the caller's phase (compute-backward covers
// BW + WU).
func (ex *gradExchanger) drain() {
	ex.flush(false)
	if ex.c.Size() > 1 {
		prev := ex.tr.Begin(trace.CollectiveWait)
		for i := range ex.flights {
			fl := &ex.flights[i]
			if fl.h != nil {
				fl.res = fl.h.Wait()
				ex.tr.Land(fl.tok)
			}
			if fl.inRing {
				continue
			}
			if len(fl.pairs) == 1 && fl.res == fl.pairs[0].g {
				continue // reduced in its own backing array
			}
			d := fl.res.Data()
			for _, pr := range fl.pairs {
				d = d[copy(pr.g.Data(), d):]
			}
		}
		ex.tr.Begin(prev)
	}
	for i := range ex.flights {
		if fl := &ex.flights[i]; !fl.inRing {
			for _, pr := range fl.pairs {
				ex.step.step(pr.o.live, pr.g)
			}
		}
	}
	for _, pr := range ex.held {
		ex.step.step(pr.o.live, pr.g)
	}
	ex.flights, ex.held = ex.flights[:0], ex.held[:0]
}
