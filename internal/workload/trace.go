// Package workload is the oracle's examination hall: a seeded scenario
// generator sweeps zoo models × cluster geometries × batch regimes ×
// plan knobs into a versioned machine-readable trace, a replay engine
// runs every scenario's candidate plans on the REAL runtime (dist.Run)
// and through the measured simulator (internal/measure), and a scorer
// grades the oracle not on absolute latency error but on RANKING
// FIDELITY — does core.Project order the strategies the way the
// measurements do? Kendall-τ, top-1 agreement, and regret per scenario,
// aggregated over the sweep into the committed SCOREBOARD.json.
//
// Replayer.Replay is also the repo's ONE measured-vs-projected join:
// the only function that runs a (model, plan, batch, machine) on
// dist.Run and has the same core.Config projected and simulated
// (measure.Compare). Its callers are the scoreboard (ScoreTrace) and
// internal/report's overhead and per-phase tables, which replay fixed
// scenarios and shape rows from the Candidates — each holding the three
// timings, the loss series and, in memory, the full projection,
// simulator result and trace summary. A candidate is skipped only on a
// pre-spawn *dist.InfeasibleError or an oracle/simulator rejection;
// any other runtime error fails the replay.
package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"paradl/internal/cluster"
	"paradl/internal/dist"
	"paradl/internal/model"
)

// Trace identity: bump TraceVersion whenever the scenario schema or the
// generator lattice changes, so a recorded seed keeps regenerating the
// bytes it was recorded against.
const (
	TraceSchema  = "paradl/trace"
	TraceVersion = 1
)

// TraceHeader is the first JSON line of a trace. It records the full
// generator spec, so `Generate(h.Spec)` regenerates the scenario lines
// byte-identically (pinned by test).
type TraceHeader struct {
	Schema  string  `json:"schema"`
	Version int     `json:"version"`
	Spec    GenSpec `json:"spec"`
	// Scenarios is the number of scenario lines that follow.
	Scenarios int `json:"scenarios"`
}

// Scenario is one point of the workload sweep: a (model, cluster,
// batch regime, width, knob setting) tuple plus the candidate plans to
// rank at that point. All candidates within a scenario train the same
// model on the same batches with the same knobs, so their relative
// timings are a strategy ordering.
type Scenario struct {
	// ID is the stable scenario name within its trace ("s017").
	ID string `json:"id"`
	// Seed is the deterministic training seed every candidate run uses.
	Seed int64 `json:"seed"`
	// Model is a zoo model name the real runtime can train (toy scale).
	Model string `json:"model"`
	// Cluster is a named system geometry (cluster.ByName) for the
	// oracle and simulator sides.
	Cluster string `json:"cluster"`
	// Batch is the GLOBAL mini-batch per iteration; Iters the training
	// iterations per candidate run.
	Batch int `json:"batch"`
	Iters int `json:"iters"`
	// P is the total PE width every candidate plan factors.
	P int `json:"p"`
	// LR is the SGD learning rate.
	LR float64 `json:"lr"`
	// The plan knobs applied to every candidate run: backward/comm
	// overlap, gradient bucket size, and the footnote-2 reduce-scatter
	// variant (false restores the pre-footnote-2 full allreduce).
	Overlap     bool `json:"overlap"`
	BucketBytes int  `json:"bucket_bytes"`
	Footnote2   bool `json:"footnote2"`
	// Plans are the candidate plan strings (dist.ParsePlan syntax), the
	// dist.SweepPlans enumeration at width P.
	Plans []string `json:"plans"`

	// Trace asks the replay to record each candidate's warm-up run under
	// the trace recorder (Candidate.Trace). It is a property of who
	// replays, not of the sweep point, so it stays off the wire.
	Trace bool `json:"-"`
}

// Validate checks a scenario is replayable: resolvable model and
// cluster, positive regime parameters, and candidate plans that parse
// and total width P.
func (sc *Scenario) Validate() error {
	if sc.ID == "" {
		return fmt.Errorf("workload: scenario without id")
	}
	if _, err := model.ByName(sc.Model); err != nil {
		return fmt.Errorf("workload: scenario %s: %w", sc.ID, err)
	}
	if _, err := cluster.ByName(sc.Cluster); err != nil {
		return fmt.Errorf("workload: scenario %s: %w", sc.ID, err)
	}
	if sc.Batch < 1 || sc.Iters < 1 || sc.P < 1 || sc.LR <= 0 || sc.BucketBytes < 1 {
		return fmt.Errorf("workload: scenario %s: non-positive regime (batch=%d iters=%d p=%d lr=%g bucket=%d)",
			sc.ID, sc.Batch, sc.Iters, sc.P, sc.LR, sc.BucketBytes)
	}
	if len(sc.Plans) == 0 {
		return fmt.Errorf("workload: scenario %s: no candidate plans", sc.ID)
	}
	for _, ps := range sc.Plans {
		pl, err := dist.ParsePlan(ps)
		if err != nil {
			return fmt.Errorf("workload: scenario %s: %w", sc.ID, err)
		}
		if pl.P() != sc.P {
			return fmt.Errorf("workload: scenario %s: plan %s totals %d PEs, scenario is p=%d", sc.ID, ps, pl.P(), sc.P)
		}
	}
	return nil
}

// WriteTrace emits the versioned JSON-lines trace: one header line,
// then one line per scenario. The byte stream is a pure function of
// (spec, scenarios) — json.Marshal of fixed-order structs — which is
// what makes traces diffable and regeneration pinnable.
func WriteTrace(w io.Writer, spec GenSpec, scs []Scenario) error {
	bw := bufio.NewWriter(w)
	h := TraceHeader{Schema: TraceSchema, Version: TraceVersion, Spec: spec, Scenarios: len(scs)}
	if err := writeLine(bw, h); err != nil {
		return err
	}
	for i := range scs {
		if err := scs[i].Validate(); err != nil {
			return err
		}
		if err := writeLine(bw, scs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeLine(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadTrace parses and validates a JSON-lines trace. It rejects wrong
// schemas, versions this reader does not understand, header/body
// scenario-count mismatches, and unreplayable scenarios — a trace
// either loads whole or not at all.
func ReadTrace(r io.Reader) (TraceHeader, []Scenario, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var h TraceHeader
	if !sc.Scan() {
		return h, nil, fmt.Errorf("workload: empty trace: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return h, nil, fmt.Errorf("workload: bad trace header: %w", err)
	}
	if h.Schema != TraceSchema {
		return h, nil, fmt.Errorf("workload: trace schema %q, want %q", h.Schema, TraceSchema)
	}
	if h.Version < 1 || h.Version > TraceVersion {
		return h, nil, fmt.Errorf("workload: trace version %d outside supported 1..%d", h.Version, TraceVersion)
	}
	var out []Scenario
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Scenario
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return h, nil, fmt.Errorf("workload: bad scenario line %d: %w", len(out)+1, err)
		}
		if err := s.Validate(); err != nil {
			return h, nil, err
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return h, nil, err
	}
	if len(out) != h.Scenarios {
		return h, nil, fmt.Errorf("workload: trace header says %d scenarios, found %d", h.Scenarios, len(out))
	}
	return h, out, nil
}
