package workload

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/measure"
)

// testScenario is a cheap handcrafted scenario: tinycnn-nobn at p=4
// admits every pure strategy, so the comparable set is full.
func testScenario() Scenario {
	return Scenario{
		ID: "t000", Seed: 42, Model: "tinycnn-nobn", Cluster: "abci-like",
		Batch: 8, Iters: 2, P: 4, LR: 0.05,
		Overlap: true, BucketBytes: 8 << 10, Footnote2: true,
		Plans: []string{"data:4", "spatial:4", "filter:4", "channel:4", "pipeline:4"},
	}
}

func TestReplayScenario(t *testing.T) {
	r, err := NewReplayer(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Replay(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates)+len(res.Skipped) != len(res.Plans) {
		t.Fatalf("%d candidates + %d skips ≠ %d plans", len(res.Candidates), len(res.Skipped), len(res.Plans))
	}
	if len(res.Candidates) < 3 {
		t.Fatalf("only %d comparable candidates: skips %+v", len(res.Candidates), res.Skipped)
	}
	// Oracle ranks must be the permutation 1..n over the candidates.
	seen := map[int]bool{}
	for _, c := range res.Candidates {
		if c.OracleRank < 1 || c.OracleRank > len(res.Candidates) || seen[c.OracleRank] {
			t.Fatalf("bad oracle rank assignment: %+v", res.Candidates)
		}
		seen[c.OracleRank] = true
		if c.MeasuredSec <= 0 || c.SimSec <= 0 || c.OracleSec <= 0 {
			t.Errorf("%s: non-positive timing (%g, %g, %g)", c.Plan, c.MeasuredSec, c.SimSec, c.OracleSec)
		}
		if len(c.Losses) != res.Iters {
			t.Errorf("%s: %d losses, want %d", c.Plan, len(c.Losses), res.Iters)
		}
	}
}

// Replaying the same trace twice yields bit-identical loss series and
// bit-identical oracle/simulator timings — only the wall clock is
// allowed to move (the determinism half of the reproducibility pin).
func TestReplayDeterministic(t *testing.T) {
	sc := testScenario()
	run := func() *ScenarioResult {
		r, err := NewReplayer(1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Replay(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("candidate sets differ: %d vs %d", len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		if ca.Plan != cb.Plan || ca.OracleRank != cb.OracleRank {
			t.Errorf("candidate %d identity drifted: %s/%d vs %s/%d", i, ca.Plan, ca.OracleRank, cb.Plan, cb.OracleRank)
		}
		if !reflect.DeepEqual(ca.Losses, cb.Losses) {
			t.Errorf("%s: loss series not bit-identical: %v vs %v", ca.Plan, ca.Losses, cb.Losses)
		}
		if ca.SimSec != cb.SimSec || ca.OracleSec != cb.OracleSec {
			t.Errorf("%s: analytic timings drifted: sim %v vs %v, oracle %v vs %v",
				ca.Plan, ca.SimSec, cb.SimSec, ca.OracleSec, cb.OracleSec)
		}
	}
	if !reflect.DeepEqual(a.Skipped, b.Skipped) {
		t.Errorf("skips drifted: %+v vs %+v", a.Skipped, b.Skipped)
	}
}

// End-to-end: a tiny seeded sweep builds a valid scoreboard whose
// aggregates cover every scenario.
func TestScoreTraceEndToEnd(t *testing.T) {
	spec := GenSpec{Seed: 11, N: 2}
	sb, err := BuildScoreboard(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sb.Scenarios) != 2 || sb.Spec != spec || sb.ReplayIters != 1 {
		t.Fatalf("scoreboard identity: %d scenarios, spec %+v", len(sb.Scenarios), sb.Spec)
	}
	// The digest must match an independent regeneration of the trace.
	scs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := TraceDigest(spec, scs)
	if err != nil {
		t.Fatal(err)
	}
	if sb.TraceSHA256 != digest {
		t.Errorf("scoreboard digest %s ≠ regenerated %s", sb.TraceSHA256, digest)
	}
}

// Infeasible plans must surface as skips naming the rejecting side, not
// fail the scenario: tiny3d at p=8 trips the Table 3 spatial, filter,
// and channel limits plus the pipeline depth bound.
func TestReplayRecordsSkips(t *testing.T) {
	sc := testScenario()
	sc.Model, sc.P = "tiny3d", 8
	sc.Plans = []string{"data:8", "spatial:8", "filter:8", "channel:8", "pipeline:8", "df:4x2", "ds:2x4", "dp:4x2"}
	r, err := NewReplayer(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Replay(sc)
	if err != nil {
		t.Fatal(err)
	}
	skipped := map[string]string{}
	for _, sk := range res.Skipped {
		skipped[sk.Plan] = sk.Reason
	}
	for _, plan := range []string{"spatial:8", "filter:8", "channel:8", "pipeline:8"} {
		reason, ok := skipped[plan]
		if !ok {
			t.Errorf("%s: not skipped (Table 3 limit expected)", plan)
			continue
		}
		if !strings.HasPrefix(reason, "runtime:") {
			t.Errorf("%s: skip reason %q does not name the failing side", plan, reason)
		}
	}
	// The one skip policy: a runtime-side skip is a typed pre-spawn
	// rejection, never a started world that died.
	for _, sk := range res.Skipped {
		var inf *dist.InfeasibleError
		if strings.HasPrefix(sk.Reason, "runtime:") && !errors.As(sk.Err, &inf) {
			t.Errorf("%s: runtime skip carries %T, want *dist.InfeasibleError", sk.Plan, sk.Err)
		}
	}
	if len(res.Candidates) < 2 {
		t.Fatalf("tiny3d p=8 left %d comparable candidates", len(res.Candidates))
	}
}

func TestNewReplayerRejectsZeroIters(t *testing.T) {
	if _, err := NewReplayer(0); err == nil {
		t.Error("iters=0 accepted")
	}
}

// A PE that dies mid-run is a failure of the replay, not a skip: before
// the typed skip policy the warm-up swallowed ANY runtime error into a
// "runtime: …" skip and the scoreboard silently lost the candidate.
func TestReplayFailsOnRuntimeCrash(t *testing.T) {
	r, err := NewReplayer(1)
	if err != nil {
		t.Fatal(err)
	}
	r.runOpts = []dist.Option{dist.WithFailAt(1, 1)}
	res, err := r.Replay(testScenario())
	if err == nil {
		t.Fatalf("a PE death during replay was recorded as %d candidates + %d skips", len(res.Candidates), len(res.Skipped))
	}
	var pf *dist.PEFailure
	if !errors.As(err, &pf) || pf.PE != 1 || pf.Iter != 1 {
		t.Fatalf("replay error %v does not carry the injected PE failure", err)
	}
}

// The candidate's plan decides the grid on every side of the join: the
// scenario's config carries no P1×P2, and a hybrid must be priced on
// the plan's 4×2 — not on the node-sized 2×4 the normaliser would
// derive for a gridless config on a 4-GPU-per-node machine. (Moved here
// from measure.MeasurePlan's "stale grid loses to the plan" test when
// that wrapper went.)
func TestReplayPlanGridWins(t *testing.T) {
	sc := testScenario()
	sc.P = 8
	sc.Plans = []string{"data:8", "df:4x2", "ds:4x2", "dp:4x2"}
	r, err := NewReplayer(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Replay(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("unexpected skips: %+v", res.Skipped)
	}
	for _, c := range res.Candidates {
		pl, err := dist.ParsePlan(c.Plan)
		if err != nil {
			t.Fatal(err)
		}
		for side, cfg := range map[string]core.Config{"oracle": c.Projection.Config, "simulator": c.Sim.Config} {
			if cfg.P != 8 {
				t.Errorf("%s: %s priced P=%d, want 8", c.Plan, side, cfg.P)
			}
			if pl.Strategy != core.Data && (cfg.P1 != 4 || cfg.P2 != 2) {
				t.Errorf("%s: %s priced a %d×%d grid, want the plan's 4×2", c.Plan, side, cfg.P1, cfg.P2)
			}
		}
		if pl.Strategy == core.Data {
			continue
		}
		gridless := c.Sim.Config
		gridless.P1, gridless.P2 = 0, 0
		def, err := measure.Measure(measure.NewEngine(gridless.Sys), gridless, pl.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		if def.Config.P1 != 2 || def.Config.P2 != 4 {
			t.Fatalf("%s: gridless default is %d×%d, the test assumes 2×4", c.Plan, def.Config.P1, def.Config.P2)
		}
		if def.Iter == c.Sim.Iter {
			t.Errorf("%s: simulator total equals the default-grid one; the plan's grid did not reach it", c.Plan)
		}
	}
}
