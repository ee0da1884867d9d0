// Chaos tests: multi-crash fault schedules, straggler injection,
// checkpoint corruption, grow-back elasticity, and supervisor
// cancellation. All of them pin the same invariant the single-failure
// tests do — the stitched loss series matches sequential SGD within
// 1e-6 no matter what the schedule throws at the run.
package dist_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"paradl/internal/dist"
	"paradl/internal/model"
)

// TestChaosMultiCrashRecoveryParity is the multi-crash regression at
// p=8 the issue demands under -race: three scheduled PE deaths at
// distinct iterations plus a straggler stall, and the supervisor must
// shrink 8→7→6→5 hands-free while keeping loss parity.
func TestChaosMultiCrashRecoveryParity(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 6, 8)
	seq := serial(t, m, batches)
	sched := &dist.FaultSchedule{Seed: 7, Faults: []dist.Fault{
		{Kind: dist.FaultCrash, PE: 3, Iter: 1},
		{Kind: dist.FaultStraggle, PE: 1, Iter: 2, Delay: 500 * time.Microsecond},
		{Kind: dist.FaultCrash, PE: 0, Iter: 3},
		{Kind: dist.FaultCrash, PE: 2, Iter: 4},
	}}
	res, err := dist.RunElastic(m, batches, mustPlan(t, "data:8"),
		dist.Policy{CkptEvery: 1, MaxRetries: 5, CkptDir: t.TempDir(), Faults: sched},
		dist.WithSeed(seed), dist.WithLR(lr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 3 {
		t.Fatalf("supervisor logged %d recoveries, want 3: %+v", len(res.Recoveries), res.Recoveries)
	}
	for i, rec := range res.Recoveries {
		if rec.Kind != "crash" {
			t.Fatalf("recovery %d kind %q, want crash: %+v", i, rec.Kind, rec)
		}
	}
	if last := mustPlan(t, res.Recoveries[2].To); last.P() >= 8 {
		t.Fatalf("after three deaths the world still has %d PEs", last.P())
	}
	assertParity(t, seq, res.Result, nil)
}

// TestGrowBackParity: a PE dies at iteration 1 and its slot heals at
// iteration 3 — the supervisor must shrink, train narrow through the
// heal point, then re-plan back to the original full-width plan and
// finish there, with the stitched series still at sequential parity.
func TestGrowBackParity(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 6, 8)
	seq := serial(t, m, batches)
	sched := &dist.FaultSchedule{Seed: 11, Faults: []dist.Fault{
		{Kind: dist.FaultCrash, PE: 2, Iter: 1},
		{Kind: dist.FaultHeal, Iter: 3},
	}}
	res, err := dist.RunElastic(m, batches, mustPlan(t, "data:8"),
		dist.Policy{CkptEvery: 1, MaxRetries: 4, CkptDir: t.TempDir(), Faults: sched},
		dist.WithSeed(seed), dist.WithLR(lr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 2 {
		t.Fatalf("want a crash then a grow-back, got %+v", res.Recoveries)
	}
	crash, grow := res.Recoveries[0], res.Recoveries[1]
	if crash.Kind != "crash" || crash.PE != 2 || crash.FailIter != 1 {
		t.Fatalf("first recovery %+v, want crash of PE 2 at iteration 1", crash)
	}
	if grow.Kind != "grow-back" || grow.PE != -1 || grow.FailIter != 3 {
		t.Fatalf("second recovery %+v, want grow-back at iteration 3", grow)
	}
	if grow.To != "data:8" {
		t.Fatalf("grow-back re-planned to %q, want the original data:8", grow.To)
	}
	if shrunk := mustPlan(t, grow.From); shrunk.P() >= 8 {
		t.Fatalf("grow-back started from %q, which is not a shrunken world", grow.From)
	}
	assertParity(t, seq, res.Result, nil)
}

// TestGrowBackWithoutCheckpointDir: grow-back must also work from the
// in-memory snapshot alone — no disk involved.
func TestGrowBackWithoutCheckpointDir(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 5, 8)
	seq := serial(t, m, batches)
	sched := &dist.FaultSchedule{Seed: 3, Faults: []dist.Fault{
		{Kind: dist.FaultCrash, PE: 0, Iter: 0},
		{Kind: dist.FaultHeal, Iter: 2},
	}}
	res, err := dist.RunElastic(m, batches, mustPlan(t, "data:8"),
		dist.Policy{CkptEvery: 1, MaxRetries: 4, Faults: sched},
		dist.WithSeed(seed), dist.WithLR(lr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 2 || res.Recoveries[1].Kind != "grow-back" {
		t.Fatalf("recoveries %+v, want crash then grow-back", res.Recoveries)
	}
	assertParity(t, seq, res.Result, nil)
}

// TestChaosCorruptionFallsBackToOlderCheckpoint: a scheduled corruption
// flips a byte of the newest checkpoint file between the crash and the
// restore. Recovery must fall back to the previous valid snapshot —
// losing progress, never correctness.
func TestChaosCorruptionFallsBackToOlderCheckpoint(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 5, 8)
	seq := serial(t, m, batches)
	sched := &dist.FaultSchedule{Seed: 5, Faults: []dist.Fault{
		{Kind: dist.FaultCrash, PE: 4, Iter: 3},
		{Kind: dist.FaultCorrupt, Iter: 3},
	}}
	res, err := dist.RunElastic(m, batches, mustPlan(t, "data:8"),
		dist.Policy{CkptEvery: 1, MaxRetries: 3, CkptDir: t.TempDir(), Faults: sched},
		dist.WithSeed(seed), dist.WithLR(lr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries %+v, want exactly one crash recovery", res.Recoveries)
	}
	rec := res.Recoveries[0]
	// Checkpoints 1..3 were durable when PE 4 died at iteration 3; the
	// corruption destroys the newest, so the resume must start earlier.
	if rec.ResumeIter >= 3 {
		t.Fatalf("resumed from iteration %d despite the newest checkpoint being corrupted", rec.ResumeIter)
	}
	assertParity(t, seq, res.Result, nil)
}

// TestChaosRandomizedScenariosParity soaks a band of seeded random
// schedules end-to-end — the in-repo slice of what paraexp -exp chaos
// does at scale. Every scenario must recover hands-free to parity.
func TestChaosRandomizedScenariosParity(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 6, 8)
	seq := serial(t, m, batches)
	for s := int64(1); s <= 6; s++ {
		sched := dist.RandomFaultSchedule(s, 8, len(batches))
		res, err := dist.RunElastic(m, batches, mustPlan(t, "data:8"),
			dist.Policy{CkptEvery: 1, MaxRetries: 8, CkptDir: t.TempDir(), Faults: sched},
			dist.WithSeed(seed), dist.WithLR(lr))
		if err != nil {
			t.Fatalf("seed %d (%v): %v", s, sched.Faults, err)
		}
		if len(res.Recoveries) == 0 {
			t.Fatalf("seed %d schedules at least one crash but the supervisor logged no recovery", s)
		}
		assertParity(t, seq, res.Result, nil)
	}
}

// TestChaosScheduleReplayable: the same seed must always draw the same
// schedule — the property that makes every chaos run reproducible.
func TestChaosScheduleReplayable(t *testing.T) {
	a := dist.RandomFaultSchedule(123, 8, 16)
	b := dist.RandomFaultSchedule(123, 8, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different schedules:\n%+v\n%+v", a.Faults, b.Faults)
	}
	if len(a.Faults) == 0 {
		t.Fatal("schedule drew no faults at all")
	}
	c := dist.RandomFaultSchedule(124, 8, 16)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("adjacent seeds drew identical schedules — the seed is not feeding the RNG")
	}
}

// TestChaosCancelledSupervisorReturnsPromptly pins the satellite fix:
// a cancelled context must interrupt the backoff sleep instead of
// waiting out the full exponential ladder.
func TestChaosCancelledSupervisorReturnsPromptly(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 4, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := dist.RunElastic(m, batches, mustPlan(t, "data:8"),
		dist.Policy{CkptEvery: 1, MaxRetries: 3, Backoff: time.Hour, Ctx: ctx},
		dist.WithSeed(seed), dist.WithLR(lr), dist.WithFailAt(1, 1))
	if err == nil {
		t.Fatal("cancelled supervisor returned success")
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("error %v does not report the cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("supervisor took %v to notice cancellation — it slept out the backoff", elapsed)
	}
}

// TestChaosStragglerKeepsParity: a straggler stall must cost wall
// time only; the loss series stays bit-compatible with a clean run.
func TestChaosStragglerKeepsParity(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 4, 8)
	seq := serial(t, m, batches)
	res, err := dist.Run(m, batches, mustPlan(t, "data:8"),
		dist.WithSeed(seed), dist.WithLR(lr),
		dist.WithDelay(5, 1, 2*time.Millisecond), dist.WithDelay(2, 3, time.Millisecond))
	assertParity(t, seq, res, err)
}
