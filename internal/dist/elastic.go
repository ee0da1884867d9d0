package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"paradl/internal/ckpt"
	"paradl/internal/core"
	"paradl/internal/nn"
	"paradl/internal/trace"
)

// Policy configures the elastic supervisor: how often the running world
// checkpoints, where the checkpoints persist, and how stubbornly the
// supervisor retries after losing PEs.
type Policy struct {
	// CkptEvery is the checkpoint cadence in iterations (default 1).
	CkptEvery int
	// CkptDir, when non-empty, persists every checkpoint to disk
	// through an async ckpt.Writer: the training path hands snapshots
	// off and keeps going while the writer does the atomic
	// temp+rename+SHA-256 in the background. With a directory set, the
	// durable, integrity-checked newest file (ckpt.LatestValid) is the
	// restore point after a failure — not the in-memory copy — so
	// recovery proves out the same path a real process restart would
	// take. A persistence failure surfaces as the run's error even when
	// training itself succeeds — a silently unprotected run is worse
	// than a failed one.
	CkptDir string
	// MaxRetries bounds how many PE deaths the supervisor absorbs
	// before giving up (default 3).
	MaxRetries int
	// Backoff, when positive, sleeps Backoff<<(attempt-1) before each
	// recovery attempt — the usual exponential courtesy toward whatever
	// killed the PE.
	Backoff time.Duration
	// Ctx, when non-nil, bounds the whole supervised run: a cancelled
	// context stops the supervisor between legs and interrupts backoff
	// sleeps, so callers get control back promptly instead of waiting
	// out the ladder.
	Ctx context.Context
	// Faults, when non-nil, scripts chaos for the run: scheduled
	// crashes (which supersede any WithFailAt in the run options),
	// straggler stalls, checkpoint corruptions (CkptDir required to
	// have any effect), and heal events that trigger grow-back.
	Faults *FaultSchedule
}

// Recovery records one supervisor intervention: a crash (shrink) or a
// grow-back (the failed slot healed), the plan migration it forced,
// the iteration training resumed from (0 when no checkpoint existed
// yet and the run restarted), and — for crashes — the recovery timing
// breakdown (MTTR). Grow-backs are planned transitions, not repairs,
// so their timing fields stay zero.
type Recovery struct {
	Kind       string `json:"kind"`        // "crash" or "grow-back"
	PE         int    `json:"pe"`          // world rank of the dead PE (-1 for grow-back)
	FailIter   int    `json:"fail_iter"`   // global iteration it died in (heal iteration for grow-back)
	From       string `json:"from"`        // plan string before re-planning
	To         string `json:"to"`          // plan string after re-planning
	ResumeIter int    `json:"resume_iter"` // first iteration of the resumed leg

	// Crash-recovery timing, all in milliseconds of wall clock:
	// DetectMS is PE death → the supervisor observing the failure (the
	// world unwinding and Run returning its error), RestoreMS the
	// re-establishment of the restore point (writer drain + durable
	// checkpoint scan-back), ReplanMS the oracle consult building the
	// candidate ladder, and MTTRMS the whole outage — PE death → the
	// re-planned world actually launching (backoff included).
	DetectMS  float64 `json:"detect_ms,omitempty"`
	RestoreMS float64 `json:"restore_ms,omitempty"`
	ReplanMS  float64 `json:"replan_ms,omitempty"`
	MTTRMS    float64 `json:"mttr_ms,omitempty"`
}

// ElasticResult is a supervised run's outcome: the final leg's Result
// with the loss series stitched across every recovery (so it spans all
// iterations, exactly like an uninterrupted run), plus the recovery
// log.
type ElasticResult struct {
	*Result
	Recoveries []Recovery
	// Checkpoints is the checkpoint writer's account when CkptDir is set:
	// snapshots written, and snapshots displaced by a newer one before
	// they reached the disk.
	Checkpoints ckpt.WriterStats
}

// RunElastic trains under supervision: the world checkpoints its
// canonical state every CkptEvery iterations (asynchronously when
// CkptDir is set), and when a PE dies (WithFailAt, a scheduled
// FaultCrash, or any injected *PEFailure) the supervisor consults the
// oracle for the best trainable plan at the shrunken world size,
// restores the last checkpoint, and continues — falling down a
// graceful-degradation ladder (oracle picks, then plain data
// parallelism, then narrower, then serial) until something trains or
// MaxRetries is spent. When a scheduled FaultHeal marks the failed
// slot healthy again, the ladder runs the other way: the supervisor
// stops the shrunken world at the heal point, re-plans at full width,
// and migrates back through the same checkpoint path (grow-back).
// Because every leg resumes from canonical unsharded state, the
// stitched loss series matches an uninterrupted run to ≤1e-6 no matter
// how many shrinks and grow-backs happened. Non-failure errors (bad
// plans, incompatible models) pass straight through: only PE death is
// recoverable.
func RunElastic(m *nn.Model, batches []Batch, pl Plan, pol Policy, opts ...Option) (*ElasticResult, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("dist: elastic run needs at least one batch")
	}
	ctx := pol.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	every := pol.CkptEvery
	if every <= 0 {
		every = 1
	}
	maxRetries := pol.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 3
	}
	fullP := pl.P()
	globalBatch := batches[0].X.Dim(0)
	sched := newScheduleState(pol.Faults)

	var (
		latest     *ckpt.State  // most recent snapshot, the restore point
		writer     *ckpt.Writer // async persistence when CkptDir is set
		recoveries []Recovery
	)
	// The supervisor's own trace track (and the writer's): recovery work
	// overlaps no PE timeline, so it records on auxiliary tracks of the
	// recorder the run options carry — nil tracks when tracing is off.
	probe := defaultConfig()
	for _, o := range opts {
		o(&probe)
	}
	sup := probe.trace.Track("supervisor")
	if pol.CkptDir != "" {
		writer = ckpt.NewWriter(pol.CkptDir)
		writer.SetTracer(probe.trace.Track("ckpt-writer"))
		defer writer.Close()
	}
	sink := func(st *ckpt.State) {
		latest = st
		if writer != nil {
			writer.Put(st) // pointer handoff; I/O happens off the training path
		}
	}

	// leg runs one supervised stretch under plan p over global
	// iterations [latest.Iter, end), resuming from the latest checkpoint
	// when one exists. disarm appends WithFailAt(-1,-1) AFTER the
	// caller's options, overriding any injected failure so a recovery
	// attempt does not re-trip the same trap; scheduled faults for the
	// window re-arm after that (the schedule supersedes WithFailAt).
	leg := func(p Plan, end int, disarm bool) (*Result, []float64, error) {
		start := 0
		var prefix []float64
		runOpts := append(append([]Option(nil), opts...), WithCheckpoint(every, sink))
		if latest != nil {
			start = latest.Iter
			prefix = append([]float64(nil), latest.Losses...)
			runOpts = append(runOpts, WithInitState(latest))
		}
		if disarm {
			runOpts = append(runOpts, WithFailAt(-1, -1))
		}
		runOpts = append(runOpts, sched.arm(p.P(), start, end)...)
		res, err := Run(m, batches[start:end], p, runOpts...)
		return res, prefix, err
	}
	finish := func(res *Result, prefix []float64) (*ElasticResult, error) {
		if writer != nil {
			if err := writer.Drain(); err != nil {
				return nil, fmt.Errorf("dist: training finished but checkpointing to %s failed: %w", pol.CkptDir, err)
			}
		}
		res.Losses = append(prefix, res.Losses...)
		er := &ElasticResult{Result: res, Recoveries: recoveries}
		if writer != nil {
			er.Checkpoints = writer.Stats()
		}
		return er, nil
	}
	// restorePoint re-establishes the restore state after a failure.
	// With a checkpoint directory, the durable newest VALID file is the
	// truth: drain the writer (so recovery never races the write it
	// depends on), let scheduled corruptions do their damage, then scan
	// back from the newest file until one passes its SHA-256. Without a
	// directory, the in-memory snapshot stands.
	restorePoint := func(failIter int) {
		if writer == nil {
			return
		}
		_ = writer.Drain() // a write error still surfaces at finish
		sched.applyCorruptions(pol.CkptDir, failIter)
		if st, _, err := ckpt.LatestValid(pol.CkptDir); err == nil {
			latest = st
		} else {
			latest = nil // nothing durable survived: restart from scratch
		}
	}
	resumeIter := func() int {
		if latest != nil {
			return latest.Iter
		}
		return 0
	}

	cur := pl
	disarm := false
	attempt := 0
	var cands []Plan      // untried alternatives for the in-progress re-plan
	var pending *Recovery // logged once the re-planned world actually runs
	var failAt time.Time  // crash instant of the pending recovery (zero for grow-backs)
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dist: elastic supervisor cancelled: %w", err)
		}
		start := resumeIter()
		// A heal the checkpoint already covers: grow immediately.
		if cur.P() < fullP && sched.healDue(start) {
			sched.consumeHeal(start)
			cands = growCandidates(m, pl, fullP, globalBatch, len(batches))
			grown := cands[0]
			cands = cands[1:]
			pending = &Recovery{Kind: "grow-back", PE: -1, FailIter: start, From: cur.String(), To: grown.String(), ResumeIter: start}
			cur, disarm = grown, true
			failAt = time.Time{}
			continue
		}
		end := sched.growBoundary(start, len(batches), cur.P() < fullP)
		if pending != nil && !failAt.IsZero() {
			// The re-planned world launches now: the outage — death to
			// relaunch, backoff and failed candidates included — is over.
			pending.MTTRMS = msSince(failAt)
			sup.End()
		}
		res, prefix, err := leg(cur, end, disarm)
		if err == nil {
			if pending != nil { // the migrated world ran: log the recovery
				recoveries = append(recoveries, *pending)
				pending = nil
			}
			cands = nil
			if end == len(batches) {
				return finish(res, prefix)
			}
			// The leg stopped at a heal boundary: the failed slot is
			// healthy again — re-plan at full width and migrate back
			// through the checkpoint. If the cadence left the newest
			// snapshot short of the boundary, the grown world replays the
			// gap; replay through canonical state is parity-exact.
			sched.consumeHeal(end)
			cands = growCandidates(m, pl, fullP, globalBatch, len(batches))
			grown := cands[0]
			cands = cands[1:]
			pending = &Recovery{Kind: "grow-back", PE: -1, FailIter: end, From: cur.String(), To: grown.String(), ResumeIter: resumeIter()}
			cur, disarm = grown, true
			failAt = time.Time{}
			continue
		}
		var pf *PEFailure
		if !errors.As(err, &pf) {
			// Not a PE death. Mid-re-plan it means the candidate is
			// untrainable for this model: fall to the next rung. Otherwise
			// it is a hard error.
			if len(cands) > 0 {
				next := cands[0]
				cands = cands[1:]
				if pending != nil {
					pending.To = next.String()
				}
				cur = next
				continue
			}
			if pending != nil {
				return nil, fmt.Errorf("dist: no %s plan is trainable for %q (last candidate %s: %v)", pending.Kind, m.Name, cur, err)
			}
			return nil, err
		}
		// A PE died. If a migration was pending, the re-planned world
		// really ran (and died again): the migration happened, log it.
		detected := time.Now() // the world has unwound; the supervisor knows
		sup.Iter(pf.Iter)
		sup.Begin(trace.Recovery)
		var detectMS float64
		if !pf.At.IsZero() {
			detectMS = detected.Sub(pf.At).Seconds() * 1e3
		}
		if pending != nil {
			recoveries = append(recoveries, *pending)
			pending = nil
		}
		cands = nil
		sched.consumeCrash(pf)
		disarm = true
		attempt++
		if attempt > maxRetries {
			sup.End()
			return nil, fmt.Errorf("dist: elastic run gave up after %d recovery attempts: %w", maxRetries, err)
		}
		if pol.Backoff > 0 {
			if serr := sleepCtx(ctx, pol.Backoff<<(attempt-1)); serr != nil {
				sup.End()
				return nil, fmt.Errorf("dist: elastic supervisor cancelled during backoff: %w", serr)
			}
		}
		restoreStart := time.Now()
		restorePoint(pf.Iter)
		restoreMS := msSince(restoreStart)
		pNew := cur.P() - 1
		if pNew < 1 {
			sup.End()
			return nil, fmt.Errorf("dist: no PEs left to recover with: %w", err)
		}
		replanStart := time.Now()
		cands = recoveryPlans(m, pNew, globalBatch, len(batches))
		replanMS := msSince(replanStart)
		if len(cands) == 0 { // unreachable: the ladder always ends at serial
			sup.End()
			return nil, fmt.Errorf("dist: no recovery plan at p=%d for %q: %w", pNew, m.Name, err)
		}
		next := cands[0]
		cands = cands[1:]
		pending = &Recovery{
			Kind: "crash", PE: pf.PE, FailIter: pf.Iter,
			From: cur.String(), To: next.String(), ResumeIter: resumeIter(),
			DetectMS: detectMS, RestoreMS: restoreMS, ReplanMS: replanMS,
		}
		failAt = pf.At
		if failAt.IsZero() {
			failAt = detected // injected failures always stamp At; be safe
		}
		cur = next
	}
}

// msSince returns the wall-clock milliseconds elapsed since t.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes
// first, returning the context's error on early wake.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// growCandidates ranks the plans worth trying when the world grows
// back to full width p: the plan the run originally asked for first
// (growing back should land where the user started whenever that plan
// still preserves semantics), then the standard recovery ladder at p.
func growCandidates(m *nn.Model, original Plan, p, globalBatch, nBatches int) []Plan {
	var out []Plan
	if original.P() == p && original.Validate() == nil && semanticsPreserving(m, original) {
		out = append(out, original)
	}
	for _, c := range recoveryPlans(m, p, globalBatch, nBatches) {
		if len(out) > 0 && c.String() == out[0].String() {
			continue
		}
		out = append(out, c)
	}
	return out
}

// recoveryPlans ranks the plans worth trying at the shrunken world
// size p: the oracle's feasible strategies first (core.AdviseFeasible —
// the strict advisor would refuse outright at awkward widths like
// primes), then the graceful-degradation ladder of plain data
// parallelism at p, narrower data parallelism, and finally serial —
// which always trains, so a supervised run never strands without a
// plan for runtime reasons alone.
func recoveryPlans(m *nn.Model, p, globalBatch, nBatches int) []Plan {
	var out []Plan
	seen := map[string]bool{}
	add := func(pl Plan) {
		if pl.Validate() != nil || seen[pl.String()] || !semanticsPreserving(m, pl) {
			return
		}
		seen[pl.String()] = true
		out = append(out, pl)
	}
	if globalBatch > 0 {
		ref := core.ConfigRef{
			Model: m.Name,
			D:     int64(maxOf(1, nBatches) * maxOf(1, globalBatch)),
			B:     globalBatch,
			P:     p,
		}
		// Non-zoo models have no oracle entry; the ladder below still
		// applies.
		if cfg, err := ref.Resolve(); err == nil {
			for _, a := range core.AdviseFeasible(cfg) {
				if pl := PlanFromProjection(a.Projection); pl.P() == p {
					add(pl)
				}
			}
		}
	}
	add(Plan{Strategy: core.Data, P1: p})
	for q := p - 1; q >= 2; q-- {
		add(Plan{Strategy: core.Data, P1: q})
	}
	add(Plan{Strategy: core.Serial})
	return out
}

// semanticsPreserving reports whether migrating to pl continues the
// SAME optimization trajectory the failed run was on. Pipeline
// microbatching computes batch-norm statistics per microbatch (the
// GPipe semantics, a documented deviation from the baseline), so for
// BN models the pipeline strategies are not valid resume targets —
// every other strategy synchronizes BN and keeps value parity.
func semanticsPreserving(m *nn.Model, pl Plan) bool {
	switch pl.Strategy {
	case core.Pipeline, core.DataPipeline:
	default:
		return true
	}
	if pl.normalized().P2 == 1 {
		return true // a single stage is plain data parallelism
	}
	for l := range m.Layers {
		if m.Layers[l].Kind == nn.BatchNorm {
			return false
		}
	}
	return true
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PlanFromProjection maps an oracle projection onto an executable
// plan: the data-parallel width rides the first axis, model-parallel
// strategies the second, and hybrids keep the advisor's defaulted
// P1×P2 grid shape.
func PlanFromProjection(pr *core.Projection) Plan {
	cfg := pr.Config
	switch s := pr.Strategy; s {
	case core.Serial:
		return Plan{Strategy: core.Serial}
	case core.Data:
		return Plan{Strategy: core.Data, P1: cfg.P}
	case core.DataFilter, core.DataSpatial, core.DataPipeline:
		return Plan{Strategy: s, P1: cfg.P1, P2: cfg.P2}
	default:
		return Plan{Strategy: s, P2: cfg.P}
	}
}

// Apply is the inverse of PlanFromProjection: it returns cfg laid out
// on the plan's grid. P is the plan's PE count; P1/P2 are set only for
// the hybrids — the oracle derives a pure strategy's geometry from P
// alone and reads a non-zero P1/P2 as an explicit hybrid split. It is
// the one Plan→Config mapping every measured-vs-projected join uses.
func (pl Plan) Apply(cfg core.Config) core.Config {
	cfg.P, cfg.P1, cfg.P2 = pl.P(), 0, 0
	if axisOf(pl.Strategy) == axisGrid {
		cfg.P1, cfg.P2 = pl.P1, pl.P2
	}
	return cfg
}
