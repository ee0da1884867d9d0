package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"paradl/internal/artifact"
	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/model"
)

// The chaos experiment is the robustness analogue of the scoreboard: N
// randomized fault schedules (multi-crash, stragglers, checkpoint
// corruption, grow-back heals), each drawn from a recorded per-scenario
// seed and run end-to-end under the elastic supervisor with async disk
// checkpointing. Every scenario must recover hands-free and land at
// ≤1e-6 loss parity against uninterrupted sequential SGD — the verdicts
// are the committed artefact:
//
//	paraexp -exp chaos -scenarios 25 -seed 1 > CHAOS.json
const (
	chaosSchema  = "paradl/chaos"
	chaosVersion = 1

	chaosModel  = "tinycnn-nobn"
	chaosPlan   = "data:8"
	chaosIters  = 6
	chaosBatch  = 8
	chaosSeed   = 42 // parameter-init seed (the schedule seed varies per scenario)
	chaosLR     = 0.05
	chaosParity = 1e-6
)

// ChaosScenario is one randomized fault run's verdict.
type ChaosScenario struct {
	// Seed regenerates this scenario's schedule exactly:
	// dist.RandomFaultSchedule(Seed, p, iters).
	Seed        int64           `json:"seed"`
	Faults      []dist.Fault    `json:"faults"`
	FaultCounts map[string]int  `json:"fault_counts"`
	Recoveries  []dist.Recovery `json:"recoveries"`
	GrowBacks   int             `json:"grow_backs"`
	Recovered   bool            `json:"recovered"`
	MaxAbsDelta float64         `json:"max_abs_delta"`
	Parity      bool            `json:"parity"`
	Error       string          `json:"error,omitempty"`
	DurationMS  float64         `json:"duration_ms"`
}

// ChaosSummary aggregates the soak; the CI gate reads it with jq.
type ChaosSummary struct {
	Scenarios   int     `json:"scenarios"`
	Recovered   int     `json:"recovered"`
	ParityOK    int     `json:"parity_ok"`
	Faults      int     `json:"faults"`
	Recoveries  int     `json:"recoveries"`
	GrowBacks   int     `json:"grow_backs"`
	MaxAbsDelta float64 `json:"max_abs_delta"`
}

// ChaosReport is the committed CHAOS.json payload.
type ChaosReport struct {
	artifact.Header
	Model       string          `json:"model"`
	Plan        string          `json:"plan"`
	Iterations  int             `json:"iterations"`
	GlobalBatch int             `json:"global_batch"`
	Seed        int64           `json:"base_seed"`
	ParityTol   float64         `json:"parity_tol"`
	Scenarios   []ChaosScenario `json:"scenarios_detail"`
	Summary     ChaosSummary    `json:"summary"`
}

// writeChaos runs the soak and emits the report. Scenario seeds derive
// deterministically from the base seed, so `-scenarios N -seed S`
// always reproduces the same N schedules, byte for byte.
func writeChaos(w io.Writer, o options) error {
	if o.scenarios < 1 {
		return fmt.Errorf("chaos wants -scenarios >= 1, got %d", o.scenarios)
	}
	m, err := model.ByName(chaosModel)
	if err != nil {
		return err
	}
	pl, err := dist.ParsePlan(chaosPlan)
	if err != nil {
		return err
	}
	batches := data.Toy(m, int64(chaosIters*chaosBatch)).Batches(chaosIters, chaosBatch)
	seq, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, dist.WithSeed(chaosSeed), dist.WithLR(chaosLR))
	if err != nil {
		return err
	}

	rep := &ChaosReport{
		Header:      artifact.NewHeader(chaosSchema, chaosVersion),
		Model:       m.Name,
		Plan:        pl.String(),
		Iterations:  chaosIters,
		GlobalBatch: chaosBatch,
		Seed:        o.seed,
		ParityTol:   chaosParity,
	}
	for i := 0; i < o.scenarios; i++ {
		// Distinct, well-separated per-scenario seeds from the base seed.
		sseed := o.seed*1_000_003 + int64(i)
		sched := dist.RandomFaultSchedule(sseed, pl.P(), chaosIters)
		sc := ChaosScenario{Seed: sseed, Faults: sched.Faults, FaultCounts: map[string]int{}}
		for k, n := range sched.Counts() {
			sc.FaultCounts[string(k)] = n
		}
		dir, err := os.MkdirTemp("", "paradl-chaos-*")
		if err != nil {
			return err
		}
		start := time.Now()
		res, rerr := dist.RunElastic(m, batches, pl,
			dist.Policy{CkptEvery: 1, MaxRetries: 8, CkptDir: dir, Faults: sched},
			dist.WithSeed(chaosSeed), dist.WithLR(chaosLR))
		sc.DurationMS = float64(time.Since(start).Microseconds()) / 1000
		os.RemoveAll(dir)
		if rerr != nil {
			sc.Error = rerr.Error()
		} else {
			sc.Recovered = true
			sc.Recoveries = res.Recoveries
			for _, rec := range res.Recoveries {
				if rec.Kind == "grow-back" {
					sc.GrowBacks++
				}
			}
			sc.MaxAbsDelta = maxAbsDelta(seq.Losses, res.Losses)
			sc.Parity = !math.IsNaN(sc.MaxAbsDelta) && sc.MaxAbsDelta <= chaosParity
		}
		rep.Scenarios = append(rep.Scenarios, sc)

		rep.Summary.Scenarios++
		rep.Summary.Faults += len(sc.Faults)
		rep.Summary.Recoveries += len(sc.Recoveries)
		rep.Summary.GrowBacks += sc.GrowBacks
		if sc.Recovered {
			rep.Summary.Recovered++
		}
		if sc.Parity {
			rep.Summary.ParityOK++
		}
		if sc.MaxAbsDelta > rep.Summary.MaxAbsDelta {
			rep.Summary.MaxAbsDelta = sc.MaxAbsDelta
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// maxAbsDelta compares two loss series; length mismatch is reported as
// +Inf (a stitched series missing iterations is a recovery bug, not a
// numeric one).
func maxAbsDelta(want, got []float64) float64 {
	if len(want) != len(got) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}
