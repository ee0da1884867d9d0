package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/profile"
)

// This file closes the ROADMAP "scenario diversity" loop: the dist
// package executes every strategy for real at toy scale, so its
// per-strategy runtime cost can sit NEXT TO the oracle's projection of
// the same strategy. Absolute times are incomparable (float64 scalar
// kernels on one host vs a modeled V100 cluster), but the OVERHEAD
// RATIO — strategy iteration time over sequential iteration time — is
// scale-free on both sides, which is exactly the quantity the paper's
// measured-vs-projected methodology compares (§5.2).

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
	runtimeBatch   = 8
	runtimeIters   = 2
	runtimeRepeats = 3
	runtimeSeed    = 42
	runtimeLR      = 0.05
)

// isWidthLimit reports whether err is a Table 3 scaling-limit
// rejection from the dist engines (every such error cites the table).
func isWidthLimit(err error) bool {
	return strings.Contains(err.Error(), "(Table 3)")
}

// timeRun measures seconds per training iteration of one runner.
func timeRun(run func() error) (float64, error) {
	if err := run(); err != nil { // warm-up; also surfaces infeasibility
		return 0, err
	}
	start := time.Now()
	for i := 0; i < runtimeRepeats; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(runtimeRepeats*runtimeIters), nil
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
	m := model.TinyCNNNoBN()
	batches := data.Toy(m, int64(runtimeIters*runtimeBatch)).Batches(runtimeIters, runtimeBatch)

	// Both overlap columns pin the toy A/B bucket size: at the 256 KiB
	// default no toy-scale bucket ever fills mid-backward, so the on/off
	// pair would time identical executions (see BenchOverlapBucketBytes).
	runPlan := func(pl dist.Plan, overlap bool) func() error {
		return func() error {
			_, err := dist.Run(m, batches, pl, dist.WithSeed(runtimeSeed), dist.WithLR(runtimeLR),
				dist.WithOverlap(overlap), dist.WithBucketBytes(dist.BenchOverlapBucketBytes))
			return err
		}
	}
	seqSec, err := timeRun(runPlan(dist.Plan{Strategy: core.Serial}, true))
	if err != nil {
		return nil, err
	}
	projCfg := func(pl dist.Plan) core.Config {
		perPE := runtimeBatch / pl.P()
		if perPE < 1 {
			perPE = 1
		}
		return pl.Apply(core.Config{
			Model:    m,
			Sys:      e.Sys,
			Times:    profile.ProfileModel(e.Dev, m, perPE),
			D:        runtimeBatch,
			B:        runtimeBatch,
			Segments: 4,
		})
	}
	serialProj, err := core.Project(projCfg(dist.Plan{Strategy: core.Serial}), core.Serial)
	if err != nil {
		return nil, err
	}
	serialIter := serialProj.Iter().Total()

	// The candidate plans: every pure strategy at width p, plus the 2-D
	// hybrids on a (p/2)×2 grid when p admits one. The measured side
	// dispatches through the same Plan registry every other runtime
	// client uses, so this table exercises the real entry path.
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

	rows := []RuntimeRow{{
		Strategy: core.Serial, P: 1,
		MeasuredSec: seqSec, MeasuredOverhead: 1,
		BlockingSec: seqSec, BlockingOverhead: 1,
		ProjectedOverhead: 1,
	}}
	for _, c := range cands {
		sec, err := timeRun(runPlan(c, true))
		if err != nil {
			// Only a Table 3 scaling limit legitimately drops a row; any
			// other failure (a runtime bug, a wedged collective) must
			// surface — this table exists to expose such discrepancies.
			if isWidthLimit(err) {
				continue
			}
			return nil, fmt.Errorf("report: measuring %v at p=%d: %w", c.Strategy, p, err)
		}
		blockSec, err := timeRun(runPlan(c, false))
		if err != nil {
			return nil, fmt.Errorf("report: measuring %v at p=%d with overlap off: %w", c.Strategy, p, err)
		}
		cfg := projCfg(c)
		proj, err := core.Project(cfg, c.Strategy)
		if err != nil {
			return nil, fmt.Errorf("report: projecting %v at p=%d (the runtime executed it): %w", c.Strategy, p, err)
		}
		rows = append(rows, RuntimeRow{
			Strategy:          c.Strategy,
			P:                 p,
			P1:                cfg.P1,
			P2:                cfg.P2,
			MeasuredSec:       sec,
			MeasuredOverhead:  sec / seqSec,
			BlockingSec:       blockSec,
			BlockingOverhead:  blockSec / seqSec,
			ProjectedOverhead: proj.Iter().Total() / serialIter,
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
	fmt.Fprintf(w, "Measured vs projected strategy overhead — %s, global batch %d, p=%d\n", "tinycnn-nobn", runtimeBatch, p)
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
