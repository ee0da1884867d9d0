package workload

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/measure"
	"paradl/internal/model"
	"paradl/internal/trace"
)

// Candidate is one plan's replay record inside a scenario: the three
// timings whose orderings the scorer compares, the oracle's rank among
// the scenario's comparable candidates, and the loss series of the
// real run (the determinism pin — wall times vary, losses must not).
type Candidate struct {
	Plan string `json:"plan"`
	// MeasuredSec is REAL wall seconds per training run under dist.Run
	// (mean over ReplayIters timed runs after one warm-up). Candidates
	// of one scenario run identical iteration counts, so per-run
	// ordering IS per-iteration ordering.
	MeasuredSec float64 `json:"measured_sec"`
	// SimSec is the measured simulator's per-iteration total
	// (measure.Measure) on the scenario's cluster geometry.
	SimSec float64 `json:"sim_sec"`
	// OracleSec is the oracle's projected per-iteration total
	// (core.Project) for the same config.
	OracleSec float64 `json:"oracle_sec"`
	// OracleFeasible mirrors Projection.Feasible; the oracle ordering
	// puts feasible candidates first (core.LessProjection).
	OracleFeasible bool `json:"oracle_feasible"`
	// OracleRank is 1 for the oracle's pick within this scenario.
	OracleRank int `json:"oracle_rank"`
	// Losses is the real run's per-iteration loss series.
	Losses []float64 `json:"losses"`

	// The join's in-memory products, for consumers that shape their own
	// rows from a replay (internal/report); SCOREBOARD.json carries only
	// the scalars above. Projection and Sim are the oracle's and the
	// simulator's full answers for the plan's config; Trace is the
	// warm-up run's phase summary when the scenario asked for one.
	Projection *core.Projection `json:"-"`
	Sim        *measure.Result  `json:"-"`
	Trace      trace.Summary    `json:"-"`
}

// Skip records a candidate plan excluded from a scenario's orderings,
// and why — e.g. a Table 3 width limit rejecting channel:4 on a
// 3-channel input, or an unsatisfiable pipeline depth. Reason is the
// rejecting side ("runtime", "oracle", "simulator") and its message;
// Err is the rejection itself (a *dist.InfeasibleError on the runtime
// side).
type Skip struct {
	Plan   string `json:"plan"`
	Reason string `json:"reason"`
	Err    error  `json:"-"`
}

// ScenarioResult is one replayed scenario: its trace record, the
// comparable candidates (measured on all three sides), the skipped
// plans, and the scenario's fidelity scores.
type ScenarioResult struct {
	Scenario
	Candidates []Candidate `json:"candidates"`
	Skipped    []Skip      `json:"skipped,omitempty"`
	ScenarioScore
}

// Replayer executes trace scenarios. It caches the per-cluster
// measurement engines and per-(cluster, model, batch) layer profiles so
// a sweep with hundreds of scenarios resolves each combination once.
type Replayer struct {
	// Iters is the number of timed real runs per candidate after the
	// one warm-up run (which also surfaces infeasibility and records
	// the loss series). 1 suffices for ordering; raise it to damp
	// scheduler noise.
	Iters int

	engines  map[string]*measure.Engine
	profiles core.ProfileMemo
	// runOpts are appended to every real run; tests inject faults here.
	runOpts []dist.Option
}

// NewReplayer builds a replay engine running `iters` timed runs per
// candidate.
func NewReplayer(iters int) (*Replayer, error) {
	if iters < 1 {
		return nil, fmt.Errorf("workload: replayer needs iters >= 1, got %d", iters)
	}
	return &Replayer{Iters: iters, engines: map[string]*measure.Engine{}}, nil
}

func (r *Replayer) engine(name string) (*measure.Engine, error) {
	if e, ok := r.engines[name]; ok {
		return e, nil
	}
	sys, err := cluster.ByName(name)
	if err != nil {
		return nil, err
	}
	e := measure.NewEngine(sys)
	r.engines[name] = e
	return e, nil
}

// Replay is the repo's one measured-vs-projected join: every candidate
// plan of the scenario runs on the real runtime with the scenario's
// knobs and seed, through the measured simulator on the scenario's
// cluster, and through the oracle, all three on one Config. The
// overhead table and PHASES.json (internal/report) and the scoreboard
// are row-shapers over its result.
//
// Skip policy: a plan the runtime rejects before spawning a PE
// (*dist.InfeasibleError) or that the oracle or simulator rejects is
// recorded as a skip naming the side; the rest become comparable
// candidates ranked by the oracle's ordering. Any other runtime error —
// a PE that panicked, an aborted world — fails the replay: a crash is a
// finding, not a row to drop. The scenario's scores are filled in by
// the caller (ScoreScenario) so replay and grading stay separable.
func (r *Replayer) Replay(sc Scenario) (*ScenarioResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	m, err := model.ByName(sc.Model)
	if err != nil {
		return nil, err
	}
	eng, err := r.engine(sc.Cluster)
	if err != nil {
		return nil, err
	}
	samples := int64(sc.Iters * sc.Batch)
	batches := data.Toy(m, samples).Batches(sc.Iters, sc.Batch)
	opts := []dist.Option{
		dist.WithSeed(sc.Seed), dist.WithLR(sc.LR),
		dist.WithOverlap(sc.Overlap), dist.WithBucketBytes(sc.BucketBytes),
	}
	if !sc.Footnote2 {
		opts = append(opts, dist.WithInputGradAllReduce())
	}
	opts = append(opts, r.runOpts...)
	base := core.NewConfig(m, eng.Sys, samples, sc.Batch, sc.P, 0, &r.profiles)

	res := &ScenarioResult{Scenario: sc}
	for _, ps := range sc.Plans {
		pl, err := dist.ParsePlan(ps)
		if err != nil {
			return nil, err // Validate already parsed these; a failure here is a bug
		}
		// Real runtime: the warm-up run records losses (and the trace,
		// when asked) and surfaces rejections; the timed runs measure the
		// identical execution untraced.
		var rec *trace.Recorder // nil: tracing off
		if sc.Trace {
			rec = trace.NewRecorder()
		}
		first, err := dist.Run(m, batches, pl, append(opts[:len(opts):len(opts)], dist.WithTrace(rec))...)
		if err != nil {
			var inf *dist.InfeasibleError
			if !errors.As(err, &inf) {
				return nil, fmt.Errorf("workload: %s: %s failed on the runtime: %w", sc.ID, ps, err)
			}
			res.Skipped = append(res.Skipped, Skip{Plan: ps, Reason: "runtime: " + err.Error(), Err: err})
			continue
		}
		start := time.Now()
		for i := 0; i < r.Iters; i++ {
			if _, err := dist.Run(m, batches, pl, opts...); err != nil {
				return nil, fmt.Errorf("workload: %s: %s ran its warm-up but failed a timed run: %w", sc.ID, ps, err)
			}
		}
		measuredSec := time.Since(start).Seconds() / float64(r.Iters)

		pr, sim, err := measure.Compare(eng, pl.Apply(base), pl.Strategy)
		if err != nil {
			// Compare's error already names its side.
			res.Skipped = append(res.Skipped, Skip{Plan: ps, Reason: err.Error(), Err: err})
			continue
		}
		c := Candidate{
			Plan:           ps,
			MeasuredSec:    measuredSec,
			SimSec:         sim.Iter.Total(),
			OracleSec:      pr.Iter().Total(),
			OracleFeasible: pr.Feasible,
			Losses:         first.Losses,
			Projection:     pr,
			Sim:            sim,
		}
		if rec != nil {
			c.Trace = rec.Summarize()
		}
		res.Candidates = append(res.Candidates, c)
	}

	// Oracle ranks over the comparable set, by the SAME comparator
	// Advise uses — "the oracle's pick" here and over the planner
	// service is one definition.
	order := make([]int, len(res.Candidates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return core.LessProjection(res.Candidates[order[a]].Projection, res.Candidates[order[b]].Projection)
	})
	for rank, idx := range order {
		res.Candidates[idx].OracleRank = rank + 1
	}
	return res, nil
}
