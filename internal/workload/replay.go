package workload

import (
	"fmt"
	"sort"
	"time"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/measure"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/profile"
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
	// (measure.MeasurePlan) on the scenario's cluster geometry.
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
}

// Skip records a candidate plan excluded from a scenario's orderings,
// and why — e.g. a Table 3 width limit rejecting channel:4 on a
// 3-channel input, or an unsatisfiable pipeline depth.
type Skip struct {
	Plan   string `json:"plan"`
	Reason string `json:"reason"`
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
	profiles map[profileKey]*profile.LayerTimes
}

type profileKey struct {
	cluster, model string
	perPE          int
}

// NewReplayer builds a replay engine running `iters` timed runs per
// candidate.
func NewReplayer(iters int) (*Replayer, error) {
	if iters < 1 {
		return nil, fmt.Errorf("workload: replayer needs iters >= 1, got %d", iters)
	}
	return &Replayer{
		Iters:    iters,
		engines:  map[string]*measure.Engine{},
		profiles: map[profileKey]*profile.LayerTimes{},
	}, nil
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

func (r *Replayer) profile(e *measure.Engine, clusterName string, m *nn.Model, perPE int) *profile.LayerTimes {
	k := profileKey{clusterName, m.Name, perPE}
	if lt, ok := r.profiles[k]; ok {
		return lt
	}
	lt := profile.ProfileModel(e.Dev, m, perPE)
	r.profiles[k] = lt
	return lt
}

// Replay executes one scenario: every candidate plan runs on the real
// runtime with the scenario's knobs and seed, through the measured
// simulator on the scenario's cluster, and through the oracle; plans
// any side rejects are recorded as skips, the rest become comparable
// candidates ranked by the oracle's ordering. The scenario's scores
// are filled in by the caller (ScoreScenario) so replay and grading
// stay separable.
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
	batches := data.Toy(m, int64(sc.Iters*sc.Batch)).Batches(sc.Iters, sc.Batch)
	opts := []dist.Option{
		dist.WithSeed(sc.Seed), dist.WithLR(sc.LR),
		dist.WithOverlap(sc.Overlap), dist.WithBucketBytes(sc.BucketBytes),
	}
	if !sc.Footnote2 {
		opts = append(opts, dist.WithInputGradAllReduce())
	}
	perPE := sc.Batch / sc.P
	if perPE < 1 {
		perPE = 1
	}
	times := r.profile(eng, sc.Cluster, m, perPE)

	res := &ScenarioResult{Scenario: sc}
	var projections []*core.Projection
	for _, ps := range sc.Plans {
		pl, err := dist.ParsePlan(ps)
		if err != nil {
			return nil, err // Validate already parsed these; a failure here is a bug
		}
		// Real runtime: warm-up run records losses and surfaces
		// rejections; the timed runs measure the identical execution.
		first, err := dist.Run(m, batches, pl, opts...)
		if err != nil {
			res.Skipped = append(res.Skipped, Skip{Plan: ps, Reason: "runtime: " + err.Error()})
			continue
		}
		start := time.Now()
		for i := 0; i < r.Iters; i++ {
			if _, err := dist.Run(m, batches, pl, opts...); err != nil {
				return nil, fmt.Errorf("workload: %s: %s ran its warm-up but failed a timed run: %w", sc.ID, ps, err)
			}
		}
		measuredSec := time.Since(start).Seconds() / float64(r.Iters)

		cfg := pl.Apply(core.Config{
			Model: m, Sys: eng.Sys, Times: times,
			D: int64(sc.Iters * sc.Batch), B: sc.Batch,
			Segments: 4,
		})
		pr, err := core.Project(cfg, pl.Strategy)
		if err != nil {
			res.Skipped = append(res.Skipped, Skip{Plan: ps, Reason: "oracle: " + err.Error()})
			continue
		}
		sim, err := measure.MeasurePlan(eng, cfg, pl)
		if err != nil {
			res.Skipped = append(res.Skipped, Skip{Plan: ps, Reason: "simulator: " + err.Error()})
			continue
		}
		res.Candidates = append(res.Candidates, Candidate{
			Plan:           ps,
			MeasuredSec:    measuredSec,
			SimSec:         sim.Iter.Total(),
			OracleSec:      pr.Iter().Total(),
			OracleFeasible: pr.Feasible,
			Losses:         first.Losses,
		})
		projections = append(projections, pr)
	}

	// Oracle ranks over the comparable set, by the SAME comparator
	// Advise uses — "the oracle's pick" here and over the planner
	// service is one definition.
	order := make([]int, len(projections))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return core.LessProjection(projections[order[a]], projections[order[b]])
	})
	for rank, idx := range order {
		res.Candidates[idx].OracleRank = rank + 1
	}
	return res, nil
}
