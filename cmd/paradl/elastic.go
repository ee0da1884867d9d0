// The -train elastic mode: checkpointing, failure injection with
// supervised recovery, and checkpoint resume (including live plan
// migration when the -train plan differs from the checkpoint's).
package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"

	"paradl/internal/ckpt"
	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/trace"
)

// elasticConfig carries the -ckpt-every/-ckpt-dir/-resume/-kill flag
// values into the elastic -train path.
type elasticConfig struct {
	Every  int
	Dir    string
	Kill   string
	Resume bool
}

func (e elasticConfig) active() bool {
	return e.Every != 0 || e.Dir != "" || e.Kill != "" || e.Resume
}

// parseKill parses a -kill "pe@iter" spec.
func parseKill(s string) (pe, iter int, err error) {
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return 0, 0, fmt.Errorf("-kill wants pe@iter (e.g. 3@2), got %q", s)
	}
	pe, err1 := strconv.Atoi(s[:at])
	iter, err2 := strconv.Atoi(s[at+1:])
	if err1 != nil || err2 != nil || pe < 0 || iter < 0 {
		return 0, 0, fmt.Errorf("-kill wants nonnegative pe@iter (e.g. 3@2), got %q", s)
	}
	return pe, iter, nil
}

// runElasticTrain is runTrain with the elastic runtime engaged: the
// run checkpoints its canonical state, optionally dies on schedule and
// recovers under supervision, or resumes a previous run from disk —
// and in every case still ends with the §4.5.2 value-parity table
// against sequential SGD, because elasticity must not change what is
// computed.
func runElasticTrain(w io.Writer, planStr, overlap, modelName string, el elasticConfig, traceOut string) error {
	if overlap != "on" && overlap != "off" {
		return fmt.Errorf("-overlap must be on or off, got %q", overlap)
	}
	if el.Every < 0 {
		return fmt.Errorf("-ckpt-every wants a positive cadence, got %d", el.Every)
	}
	pl, err := dist.ParsePlan(planStr)
	if err != nil {
		return err
	}
	m, err := model.ByName(modelName)
	if err != nil {
		return err
	}
	if p := m.Params(); p > trainMaxParams {
		return fmt.Errorf("-train is toy-scale: model %q has %d parameters (> %d); pick a tiny zoo model (tinyresnet|tinycnn|tinycnn-nobn|tiny3d)",
			modelName, p, trainMaxParams)
	}
	batches := toyBatches(m)
	opts := trainOptions(overlap)
	seq, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, opts...)
	if err != nil {
		return err
	}

	// The elastic run gets the recorder (one Recorder spans every leg of
	// the supervised run — recovery spans land on the supervisor track);
	// the sequential baseline stays untraced.
	var rec *trace.Recorder
	if traceOut != "" {
		rec = trace.NewRecorder()
		opts = append(append([]dist.Option(nil), opts...), dist.WithTrace(rec))
	}
	var res *dist.Result
	if el.Resume {
		res, err = resumeTrain(w, m, pl, opts, el)
	} else {
		res, err = superviseTrain(w, m, batches, pl, opts, el)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(traceOut, rec); err != nil {
			return err
		}
	}
	return printElasticParity(w, pl, overlap, m, seq, res)
}

// superviseTrain runs the schedule under the elastic supervisor,
// reporting every recovery it performed.
func superviseTrain(w io.Writer, m *nn.Model, batches []dist.Batch, pl dist.Plan, opts []dist.Option, el elasticConfig) (*dist.Result, error) {
	runOpts := append([]dist.Option(nil), opts...)
	if el.Kill != "" {
		pe, iter, err := parseKill(el.Kill)
		if err != nil {
			return nil, err
		}
		if pe >= pl.P() {
			return nil, fmt.Errorf("-kill %s targets PE %d, but plan %s has only %d PEs", el.Kill, pe, pl, pl.P())
		}
		runOpts = append(runOpts, dist.WithFailAt(pe, iter))
	}
	er, err := dist.RunElastic(m, batches, pl, dist.Policy{
		CkptEvery: el.Every, CkptDir: el.Dir, MaxRetries: 3,
	}, runOpts...)
	if err != nil {
		return nil, err
	}
	for _, rec := range er.Recoveries {
		if rec.Kind == "grow-back" {
			fmt.Fprintf(w, "grew back: slot healthy at iteration %d; plan %s → %s; resumed from checkpoint at iteration %d\n",
				rec.FailIter, rec.From, rec.To, rec.ResumeIter)
			continue
		}
		fmt.Fprintf(w, "recovered: PE %d died at iteration %d; plan %s → %s; resumed from checkpoint at iteration %d\n",
			rec.PE, rec.FailIter, rec.From, rec.To, rec.ResumeIter)
	}
	if el.Dir != "" {
		// The writer keeps only the newest pending snapshot, so a slow
		// disk displaces some: say how many.
		fmt.Fprintf(w, "checkpoints: %d saved, %d displaced\n", er.Checkpoints.Saved, er.Checkpoints.Dropped)
	}
	return er.Result, nil
}

// resumeTrain restores the newest VALID checkpoint from -ckpt-dir
// (scanning past torn or corrupted files) and trains the remaining
// iterations of the fixed toy schedule under pl — a live plan
// migration whenever pl differs from the plan the checkpoint was
// written under.
func resumeTrain(w io.Writer, m *nn.Model, pl dist.Plan, opts []dist.Option, el elasticConfig) (*dist.Result, error) {
	st, path, err := ckpt.LatestValid(el.Dir)
	if err != nil {
		return nil, err
	}
	if st.Iter >= trainIters {
		return nil, fmt.Errorf("%s is at iteration %d: nothing left of the %d-iteration toy schedule", path, st.Iter, trainIters)
	}
	fmt.Fprintf(w, "resuming from %s: iteration %d, written under plan %s", path, st.Iter, st.Plan)
	if st.Plan != pl.String() {
		fmt.Fprintf(w, " (migrating to %s)", pl)
	}
	fmt.Fprintln(w)
	// Prefer the explicit data-cursor stream (v2 headers) for the
	// resume point; v1 files fall back to the legacy Cursor field.
	cursor := st.Cursor
	if ds, ok := st.Stream("data-cursor"); ok {
		cursor = int(ds.Next)
	}
	tail := data.Toy(m, int64(trainIters*trainBatch)).BatchesFrom(cursor, trainIters-st.Iter, trainBatch)
	res, err := dist.Run(m, tail, pl, append(append([]dist.Option(nil), opts...), dist.WithInitState(st))...)
	if err != nil {
		return nil, err
	}
	res.Losses = append(append([]float64(nil), st.Losses...), res.Losses...)
	return res, nil
}

// printElasticParity prints the value-parity table for an elastic run,
// which spans the full schedule regardless of how many times the world
// was rebuilt along the way.
func printElasticParity(w io.Writer, pl dist.Plan, overlap string, m *nn.Model, seq, res *dist.Result) error {
	if len(res.Losses) != len(seq.Losses) {
		return fmt.Errorf("elastic run produced %d losses for a %d-iteration schedule", len(res.Losses), len(seq.Losses))
	}
	fmt.Fprintf(w, "elastic training parity — %s, plan %s, global batch %d, %d iterations, overlap=%s\n",
		m.Name, pl, trainBatch, trainIters, overlap)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "iter\tsequential\telastic\tΔ\n")
	worst := 0.0
	for i := range seq.Losses {
		d := res.Losses[i] - seq.Losses[i]
		if a := math.Abs(d); a > worst || math.IsNaN(a) {
			worst = a
		}
		fmt.Fprintf(tw, "%d\t%.6f\t%.6f\t%.1e\n", i, seq.Losses[i], res.Losses[i], d)
	}
	tw.Flush()
	if worst > trainTol || math.IsNaN(worst) {
		return fmt.Errorf("elastic run diverged from sequential SGD: max |Δ| = %.3e > %g", worst, trainTol)
	}
	fmt.Fprintf(w, "elastic run reproduces sequential SGD value-by-value (max |Δ| = %.1e ≤ %g, §4.5.2)\n",
		worst, trainTol)
	return nil
}
