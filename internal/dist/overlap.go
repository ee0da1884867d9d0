package dist

import (
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
// being packed (push).
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
// cross-group allreduce goes through. Gradients are pushed in backward
// order (layer l's gradients as soon as its backward completes); full
// buckets are packed into one flat buffer and summed with a single
// allreduce — nonblocking (IAllReduceSum, overlapping the backward of
// the layers below) when overlap is on, blocking at the same flush
// points when it is off; the tail bucket at drain runs blocking in both
// modes since no compute remains to hide behind. Both modes pack
// identical buckets and run identical collectives, so their results are
// bit-identical — the overlap A/B the determinism suite pins — and
// drain() writes every reduced value back into the gradient tensor it
// came from, so engine code downstream is oblivious to the bucketing.
type gradExchanger struct {
	c           *Comm
	overlap     bool
	bucketBytes int
	queued      []*tensor.Tensor
	queuedBytes int
	flights     []flight
	tr          *trace.PE // this PE's tracer; nil when tracing is off
}

// flight is one launched bucket: the flat buffer in the collective (or
// its blocking-mode result) plus the gradient tensors to unpack into.
type flight struct {
	flat *tensor.Tensor
	ts   []*tensor.Tensor
	h    *Handle // nil when the exchange already ran blocking at flush
	tok  int64   // trace flight token of the nonblocking launch
}

// newGradExchanger returns the exchanger of one PE for the given
// communicator, or nil when the communicator is singleton — gradients
// are already global there, exactly as the blocking AllReduceSum's p=1
// identity made them before. Like a nil trace.PE, a nil exchanger is
// usable: push, pushGrads and drain are no-ops on it, so engine code
// never asks whether its segment is wider than one.
func newGradExchanger(c *Comm, cfg *runConfig) *gradExchanger {
	if c.Size() == 1 {
		return nil
	}
	bb := cfg.bucketBytes
	if bb < 1 {
		bb = 1 // flush every tensor by itself
	}
	return &gradExchanger{c: c, overlap: cfg.overlap, bucketBytes: bb, tr: cfg.trace.PE(c.WorldRank())}
}

// push queues gradient tensors for exchange, flushing the bucket
// whenever the size bound is reached; a tensor that is bucket-sized by
// itself first flushes whatever is queued, so it is exchanged alone.
// Nil tensors (absent fields of nn.Grads) are skipped. The tensors must
// be dead to the caller until drain returns: the exchange owns their
// values and rewrites their data in place with the reduced result.
func (ex *gradExchanger) push(ts ...*tensor.Tensor) {
	if ex == nil {
		return
	}
	for _, t := range ts {
		if t == nil {
			continue
		}
		b := 8 * t.Len()
		if b >= ex.bucketBytes {
			ex.flush(ex.overlap) // t travels alone, in place: see flush
		}
		ex.queued = append(ex.queued, t)
		ex.queuedBytes += b
		if ex.queuedBytes >= ex.bucketBytes {
			ex.flush(ex.overlap)
		}
	}
}

// pushGrads queues every present field of one layer's gradients.
func (ex *gradExchanger) pushGrads(gr *nn.Grads) {
	ex.push(gr.W, gr.B, gr.Gamma, gr.Beta)
}

// flush launches the exchange of the queued bucket — nonblocking when
// async is set (a mid-backward bucket with compute left to hide
// behind), blocking otherwise. Either way the packed buffer and the
// collective are identical, so the two modes cannot diverge by a bit.
// Packing exists to coalesce small tensors: a multi-tensor bucket is
// packed into one flat buffer in push order, so it costs one collective
// instead of one per tensor. A single-tensor bucket — always the case
// for a tensor of bucketBytes or more, which push never queues behind
// others — skips the pack/unpack copies and is reduced in its own
// backing array.
func (ex *gradExchanger) flush(async bool) {
	if len(ex.queued) == 0 {
		return
	}
	// The synchronous flush cost — pack plus launch (async) or pack plus
	// the blocking exchange — is a collective span; the caller's phase
	// (usually compute-backward) is restored on the way out. The async
	// in-flight window itself lands at drain.
	ph := trace.CollectiveWait
	if async {
		ph = trace.CollectiveLaunch
	}
	prev := ex.tr.Begin(ph)
	ts := ex.queued
	ex.queued = nil
	n := ex.queuedBytes / 8
	ex.queuedBytes = 0
	flat := ts[0]
	if len(ts) > 1 {
		buf := make([]float64, n)
		o := 0
		for _, t := range ts {
			o += copy(buf[o:], t.Data())
		}
		flat = tensor.FromSlice(buf, n)
	}
	fl := flight{ts: ts, tok: -1}
	if async {
		fl.h = ex.c.IAllReduceSum(flat)
		fl.tok = ex.tr.Flight()
	} else {
		fl.flat = ex.c.AllReduceSum(flat)
	}
	ex.flights = append(ex.flights, fl)
	ex.tr.Begin(prev)
}

// drain flushes the tail bucket — blocking: at the pre-step barrier
// there is no backward compute left to overlap, so a worker goroutine
// would be pure overhead — waits every in-flight collective, and
// unpacks each reduced bucket back into its gradient tensors.
func (ex *gradExchanger) drain() {
	if ex == nil {
		return
	}
	ex.flush(false)
	prev := ex.tr.Begin(trace.CollectiveWait)
	for _, fl := range ex.flights {
		res := fl.flat
		if fl.h != nil {
			res = fl.h.Wait()
			ex.tr.Land(fl.tok)
		}
		if len(fl.ts) == 1 {
			if res != fl.ts[0] {
				copy(fl.ts[0].Data(), res.Data())
			}
			continue
		}
		d := res.Data()
		o := 0
		for _, t := range fl.ts {
			td := t.Data()
			copy(td, d[o:o+len(td)])
			o += len(td)
		}
	}
	ex.flights = ex.flights[:0]
	ex.tr.Begin(prev)
}
