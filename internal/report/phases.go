package report

import (
	"fmt"
	"io"

	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/workload"
)

// This file is the per-phase refinement of the runtime overhead table:
// instead of comparing one scalar (iteration time) per plan, the trace
// recorder decomposes each REAL toy run's wall clock into the closed
// phase vocabulary, and the oracle's projection of the same plan
// decomposes into its analytic terms. Absolute times remain
// incomparable (host float64 kernels vs a modeled cluster), so the join
// is on SHARES: compute fraction, exposed-communication fraction, and —
// measured side only — the overlap-hidden communication the analytic
// model folds into its overlap factor.
//
// Like the overhead table, this is a row-shaper over the repo's one
// join (workload.Replayer.Replay): each committed (model, plan) cell is
// a fixed scenario replayed with tracing on.

// PhaseRow is one (model, plan) cell of the measured-vs-projected
// per-phase table.
type PhaseRow struct {
	Model string `json:"model"`
	Plan  string `json:"plan"`
	P     int    `json:"p"`

	// WallMS is the traced run's observed wall clock; Iters the
	// iteration count the trace attributed spans to; Coverage the
	// minimum per-PE tiling ratio (1.0 = the spans account for every
	// nanosecond of that PE's timeline).
	WallMS   float64 `json:"wall_ms"`
	Iters    int     `json:"iters"`
	Coverage float64 `json:"coverage"`

	// PhaseMS sums measured span time per phase across all PEs.
	PhaseMS map[string]float64 `json:"phase_ms"`
	// HiddenCommMS sums the async in-flight windows of nonblocking
	// collectives — communication hidden behind backward compute.
	HiddenCommMS float64 `json:"hidden_comm_ms"`

	// Measured shares are over compute+exposed-comm time (idle and
	// checkpoint phases excluded — the oracle has no term for them).
	MeasuredComputeShare float64 `json:"measured_compute_share"`
	MeasuredCommShare    float64 `json:"measured_comm_share"`
	// MeasuredHiddenShare is hidden comm over the same denominator; it
	// can exceed MeasuredCommShare — that is overlap working.
	MeasuredHiddenShare float64 `json:"measured_hidden_share"`

	// Projected shares come from the oracle's iteration breakdown for
	// the same (model, plan, width): Comp()/Total() and Comm()/Total().
	ProjectedComputeShare float64 `json:"projected_compute_share"`
	ProjectedCommShare    float64 `json:"projected_comm_share"`
}

// The traced toy workload: same hyperparameters as the runtime
// overhead table, more iterations so span sums dominate per-run setup.
// PhaseBatch/PhaseIters are exported so the PHASES.json emitter can
// record the workload it measured.
const (
	PhaseBatch = runtimeBatch
	PhaseIters = 4
)

// phasePlans is the committed plan matrix: every strategy the model
// admits, at the widest toy width it admits (tinycnn-nobn takes all
// eight at p=4; tinyresnet narrows the tensor-parallel widths to 2).
func phasePlans(modelName string) []dist.Plan {
	w := 4
	if modelName == "tinyresnet" {
		w = 2
	}
	return []dist.Plan{
		{Strategy: core.Data, P1: 4},
		{Strategy: core.Spatial, P2: w},
		{Strategy: core.Filter, P2: w},
		{Strategy: core.Channel, P2: w},
		{Strategy: core.Pipeline, P2: w},
		{Strategy: core.DataFilter, P1: 2, P2: 2},
		{Strategy: core.DataSpatial, P1: 2, P2: 2},
		{Strategy: core.DataPipeline, P1: 2, P2: 2},
	}
}

// phaseScenarios lists the committed cells in row order, one traced
// scenario per (model, plan) — the matrix mixes widths within a model,
// and a scenario is one width.
func (e *Env) phaseScenarios() []workload.Scenario {
	var scs []workload.Scenario
	for _, name := range []string{"tinycnn-nobn", "tinyresnet"} {
		for _, pl := range phasePlans(name) {
			sc := e.toyScenario("phases-"+name+"-"+pl.String(), name, PhaseIters, true, pl)
			sc.Trace = true
			scs = append(scs, sc)
		}
	}
	return scs
}

// PhaseBreakdown traces every plan of the committed matrix on the real
// runtime and joins each run's per-phase decomposition with the
// oracle's analytic breakdown of the same plan. Every plan in the
// matrix must run AND project — a width the runtime rejects is a matrix
// bug, not a row to skip.
func (e *Env) PhaseBreakdown() ([]PhaseRow, error) {
	r, err := workload.NewReplayer(1)
	if err != nil {
		return nil, err
	}
	var rows []PhaseRow
	for _, sc := range e.phaseScenarios() {
		res, err := r.Replay(sc)
		if err != nil {
			return nil, fmt.Errorf("report: tracing %s on %s: %w", sc.Plans[0], sc.Model, err)
		}
		if len(res.Skipped) > 0 {
			return nil, fmt.Errorf("report: %s on %s is in the committed matrix but was skipped: %s", sc.Plans[0], sc.Model, res.Skipped[0].Reason)
		}
		c := res.Candidates[0]
		sum := c.Trace
		row := PhaseRow{
			Model:        sc.Model,
			Plan:         c.Plan,
			P:            sc.P,
			WallMS:       float64(sum.WallNS) / 1e6,
			Iters:        sum.Iters,
			Coverage:     sum.Coverage,
			PhaseMS:      map[string]float64{},
			HiddenCommMS: float64(sum.AsyncNS) / 1e6,
		}
		for ph, ns := range sum.PhaseNS {
			row.PhaseMS[ph] = float64(ns) / 1e6
		}
		if work := sum.ComputeNS() + sum.CommNS(); work > 0 {
			row.MeasuredComputeShare = float64(sum.ComputeNS()) / float64(work)
			row.MeasuredCommShare = float64(sum.CommNS()) / float64(work)
			row.MeasuredHiddenShare = float64(sum.AsyncNS) / float64(work)
		}
		it := c.Projection.Iter()
		if t := it.Total(); t > 0 {
			row.ProjectedComputeShare = it.Comp() / t
			row.ProjectedCommShare = it.Comm() / t
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WritePhaseBreakdown renders the measured-vs-projected per-phase
// share table (the human view of PHASES.json).
func (e *Env) WritePhaseBreakdown(w io.Writer) error {
	rows, err := e.PhaseBreakdown()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Measured vs projected per-phase shares — global batch %d, %d iterations\n", PhaseBatch, PhaseIters)
	fmt.Fprintf(w, "(measured: REAL runtime wall clock decomposed by the trace recorder into the\n closed phase vocabulary; hidden = nonblocking-collective in-flight time behind\n backward compute; projected: the oracle's analytic breakdown of the same plan;\n shares are scale-free so host kernels and the modeled cluster can sit side by side)\n")
	tw := newTable(w)
	fmt.Fprintln(tw, "model\tplan\twall ms\tcoverage\tmeas comp\tmeas comm\tmeas hidden\tproj comp\tproj comm")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.3f\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.Model, r.Plan, r.WallMS, r.Coverage,
			r.MeasuredComputeShare*100, r.MeasuredCommShare*100, r.MeasuredHiddenShare*100,
			r.ProjectedComputeShare*100, r.ProjectedCommShare*100)
	}
	return tw.Flush()
}
