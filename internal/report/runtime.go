package report

import (
	"errors"
	"fmt"
	"io"

	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/workload"
)

// This file closes the ROADMAP "scenario diversity" loop: the dist
// package executes every strategy for real at toy scale, so its
// per-strategy runtime cost can sit NEXT TO the oracle's projection of
// the same strategy. Absolute times are incomparable (float64 scalar
// kernels on one host vs a modeled V100 cluster), but the OVERHEAD
// RATIO — strategy iteration time over sequential iteration time — is
// scale-free on both sides, which is exactly the quantity the paper's
// measured-vs-projected methodology compares (§5.2).
//
// The table is a row-shaper over the repo's one join
// (workload.Replayer.Replay): fixed scenarios — the serial baseline,
// the width-p candidates with overlap on, the same with overlap off —
// are replayed, and each row divides a candidate by the baseline.

// RuntimeRow is one strategy's measured-vs-projected overhead at width
// p. P1/P2 are zero except for the hybrids.
type RuntimeRow struct {
	Strategy core.Strategy
	P        int
	P1, P2   int
	// MeasuredSec is the real wall time of one training iteration under
	// internal/dist on the toy model with nonblocking backward/comm
	// overlap at the toy A/B bucket size (dist.BenchOverlapBucketBytes).
	MeasuredSec float64
	// MeasuredOverhead = MeasuredSec / sequential MeasuredSec.
	MeasuredOverhead float64
	// BlockingSec / BlockingOverhead re-measure the same plan with the
	// identical buckets exchanged synchronously (dist.WithOverlap(false))
	// — the A/B baseline, loss-identical to the overlapped run.
	BlockingSec      float64
	BlockingOverhead float64
	// ProjectedOverhead = projected iteration total at width P over the
	// projected serial iteration total, from the analytic oracle.
	ProjectedOverhead float64
}

// runtimeWorkload pins the toy measurement: tinycnn-nobn (every
// strategy admits it), global batch 8, 2 iterations per run, 3 timed
// runs after one warm-up.
const (
	runtimeModel   = "tinycnn-nobn"
	runtimeBatch   = 8
	runtimeIters   = 2
	runtimeRepeats = 3
	runtimeSeed    = 42
	runtimeLR      = 0.05
)

// toyScenario is the fixed toy workload both measured tables replay:
// the runtime-overhead hyperparameters on the Env's machine. Both
// overlap columns pin the toy A/B bucket size: at the 256 KiB default
// no toy-scale bucket ever fills mid-backward, so the on/off pair would
// time identical executions (see BenchOverlapBucketBytes).
func (e *Env) toyScenario(id, modelName string, iters int, overlap bool, plans ...dist.Plan) workload.Scenario {
	sc := workload.Scenario{
		ID: id, Seed: runtimeSeed, Model: modelName, Cluster: e.Sys.Name,
		Batch: runtimeBatch, Iters: iters, P: plans[0].P(), LR: runtimeLR,
		Overlap: overlap, BucketBytes: dist.BenchOverlapBucketBytes, Footnote2: true,
	}
	for _, pl := range plans {
		sc.Plans = append(sc.Plans, pl.String())
	}
	return sc
}

// RuntimeOverhead measures every strategy the toy model admits at width
// p against the sequential baseline and pairs each ratio with the
// oracle's projection for the same strategy and width. Strategies whose
// Table 3 limits exclude width p (e.g. channel beyond min C_l) are
// skipped. p must stay toy-scale (≤ 8): the point is the ratio, not
// cluster realism.
func (e *Env) RuntimeOverhead(p int) ([]RuntimeRow, error) {
	if p < 2 || p > 8 {
		return nil, fmt.Errorf("report: runtime overhead is toy-scale, need 2 <= p <= 8, got %d", p)
	}
	// The candidate plans: every pure strategy at width p, plus the 2-D
	// hybrids on a (p/2)×2 grid when p admits one.
	cands := []dist.Plan{
		{Strategy: core.Data, P1: p},
		{Strategy: core.Spatial, P2: p},
		{Strategy: core.Filter, P2: p},
		{Strategy: core.Channel, P2: p},
		{Strategy: core.Pipeline, P2: p},
	}
	if p%2 == 0 && p >= 4 {
		cands = append(cands,
			dist.Plan{Strategy: core.DataFilter, P1: p / 2, P2: 2},
			dist.Plan{Strategy: core.DataSpatial, P1: p / 2, P2: 2},
			dist.Plan{Strategy: core.DataPipeline, P1: p / 2, P2: 2},
		)
	}

	r, err := workload.NewReplayer(runtimeRepeats)
	if err != nil {
		return nil, err
	}
	replay := func(id string, overlap bool, plans ...dist.Plan) (*workload.ScenarioResult, error) {
		res, err := r.Replay(e.toyScenario(id, runtimeModel, runtimeIters, overlap, plans...))
		if err != nil {
			return nil, fmt.Errorf("report: measuring p=%d: %w", p, err)
		}
		// Only a runtime width limit legitimately drops a row; a plan the
		// runtime executed but the oracle or simulator rejected must
		// surface — this table exists to expose such discrepancies.
		for _, sk := range res.Skipped {
			var inf *dist.InfeasibleError
			if !errors.As(sk.Err, &inf) {
				return nil, fmt.Errorf("report: %s at p=%d (the runtime executed it): %s", sk.Plan, p, sk.Reason)
			}
		}
		return res, nil
	}
	seq, err := replay("overhead-serial", true, dist.Plan{Strategy: core.Serial})
	if err != nil {
		return nil, err
	}
	if len(seq.Candidates) != 1 {
		return nil, fmt.Errorf("report: the serial baseline did not run: %+v", seq.Skipped)
	}
	on, err := replay("overhead-overlap", true, cands...)
	if err != nil {
		return nil, err
	}
	off, err := replay("overhead-blocking", false, cands...)
	if err != nil {
		return nil, err
	}
	if len(off.Candidates) != len(on.Candidates) {
		return nil, fmt.Errorf("report: p=%d ran %d plans with overlap on but %d with it off", p, len(on.Candidates), len(off.Candidates))
	}

	// Replay times whole runs; the table is per iteration.
	base := seq.Candidates[0]
	seqSec := base.MeasuredSec / runtimeIters
	rows := []RuntimeRow{{
		Strategy: core.Serial, P: 1,
		MeasuredSec: seqSec, MeasuredOverhead: 1,
		BlockingSec: seqSec, BlockingOverhead: 1,
		ProjectedOverhead: 1,
	}}
	for i, c := range on.Candidates {
		cfg := c.Projection.Config
		sec, blockSec := c.MeasuredSec/runtimeIters, off.Candidates[i].MeasuredSec/runtimeIters
		rows = append(rows, RuntimeRow{
			Strategy:          c.Projection.Strategy,
			P:                 p,
			P1:                cfg.P1,
			P2:                cfg.P2,
			MeasuredSec:       sec,
			MeasuredOverhead:  sec / seqSec,
			BlockingSec:       blockSec,
			BlockingOverhead:  blockSec / seqSec,
			ProjectedOverhead: c.OracleSec / base.OracleSec,
		})
	}
	return rows, nil
}

// WriteRuntimeOverhead renders the measured-vs-projected overhead table.
func (e *Env) WriteRuntimeOverhead(w io.Writer, p int) error {
	rows, err := e.RuntimeOverhead(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Measured vs projected strategy overhead — %s, global batch %d, p=%d\n", runtimeModel, runtimeBatch, p)
	fmt.Fprintf(w, "(overhead = iteration time / sequential iteration time; measured side is the\n real internal/dist runtime at toy scale — overlap: nonblocking bucketed gradient\n exchange, blocking: the same exchange synchronous — projected side is the oracle)\n")
	tw := newTable(w)
	fmt.Fprintln(tw, "strategy\tgrid\toverlap ms/iter\tblocking ms/iter\tmeasured overhead\tblocking overhead\tprojected overhead")
	for _, r := range rows {
		grid := fmt.Sprintf("p=%d", r.P)
		if r.P1 > 0 {
			grid = fmt.Sprintf("%d×%d", r.P1, r.P2)
		}
		fmt.Fprintf(tw, "%v\t%s\t%.2f\t%.2f\t%.2f×\t%.2f×\t%.2f×\n",
			r.Strategy, grid, r.MeasuredSec*1e3, r.BlockingSec*1e3,
			r.MeasuredOverhead, r.BlockingOverhead, r.ProjectedOverhead)
	}
	return tw.Flush()
}
