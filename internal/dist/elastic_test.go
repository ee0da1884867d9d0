// Elastic-runtime tests: bit-identical checkpoint/resume on every
// plan, supervised recovery from injected PE death, and live plan
// migration through the canonical checkpoint representation.
package dist_test

import (
	"fmt"
	"math"
	"testing"

	"paradl/internal/ckpt"
	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

func mustPlan(t testing.TB, s string) dist.Plan {
	t.Helper()
	pl, err := dist.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestResumeBitIdenticalAllPlans pins the elastic invariant on every
// plan: (1) a checkpointing run is bit-identical to a plain run (the
// snapshot gathers are pure data movement), and (2) a run restored
// from the iteration-2 snapshot — after a full wire round-trip —
// reproduces the remaining losses bit-for-bit, momentum velocities
// included. Equality here is ==, not a tolerance. Then the cross-plan
// matrix, the guard of the ownership table: same-plan resume passes
// even when a gather and a seed are wrong in the same way, so (3)
// every plan's snapshot must BE the canonical state — Params and Vel
// within 1e-9 of serial's — and (4) resuming each snapshot under each
// OTHER plan must finish within 1e-6 of the straight serial run. The
// residual model repeats all four on the DAG executor's sharded
// branch weights; the fcnet-shaped one on an FC weight large enough
// (640 KiB, 320 KiB per filter shard) to be updated inside the ring by
// every plan with a data axis, which then holds its velocity in flat
// chunks — the ownership table's velocity qualifier — at even (p1 = 2,
// 4) and uneven (p1 = 3) chunk sizes.
func TestResumeBitIdenticalAllPlans(t *testing.T) {
	cross := []string{"serial", "data:2", "filter:2", "channel:2", "spatial:2", "pipeline:2", "df:2x2", "ds:2x2", "dp:2x2"}
	resumeMatrix(t, model.TinyCNNNoBN(), append(cross,
		"data:4", "spatial:4", "filter:4", "channel:4", "pipeline:4"), cross)
	t.Run("tinyresnet", func(t *testing.T) { resumeMatrix(t, model.TinyResNet(), cross, cross) })
	t.Run("fcnet-shaped", func(t *testing.T) {
		sharded := []string{"serial", "filter:2", "data:2", "data:3", "data:4", "df:2x2", "ds:2x2", "dp:2x2"}
		resumeMatrix(t, dist.FCNetShapedForTest(640, 4), sharded, sharded)
	})
}

// TestShardedUpdateCheckpointsMatchSerial: under momentum, with the big
// weight's velocity held in chunks, a checkpoint after EVERY iteration
// still assembles the canonical state — Params and Vel within 1e-9 of
// the serial run's snapshot of the same iteration — at the default
// bucket (the FC weight alone is sharded) and at 1 byte (every
// ring-sized tensor is).
func TestShardedUpdateCheckpointsMatchSerial(t *testing.T) {
	m := dist.FCNetShapedForTest(640, 4)
	batches := toyBatches(t, m, 4, 8)
	snapshots := func(ps string, bucket int) []*ckpt.State {
		var snaps []*ckpt.State
		_, err := dist.Run(m, batches, mustPlan(t, ps), dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9),
			dist.WithBucketBytes(bucket), dist.WithCheckpoint(1, func(st *ckpt.State) { snaps = append(snaps, st) }))
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != len(batches) {
			t.Fatalf("%s: %d snapshots, want one per iteration (%d)", ps, len(snaps), len(batches))
		}
		return snaps
	}
	want := snapshots("serial", 256<<10)
	for _, ps := range []string{"data:2", "data:3", "data:4", "df:2x2", "ds:2x2", "dp:2x2"} {
		for _, bucket := range []int{1, 256 << 10} {
			for i, st := range snapshots(ps, bucket) {
				what := fmt.Sprintf("%s bucket=%d iteration-%d snapshot", ps, bucket, st.Iter)
				assertStateNear(t, what, st.Params, want[i].Params)
				assertStateNear(t, what+" velocity", st.Vel, want[i].Vel)
			}
		}
	}
}

func resumeMatrix(t *testing.T, m *nn.Model, plans, cross []string) {
	batches := toyBatches(t, m, 4, 8)
	opts := []dist.Option{dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9)}
	resume := func(t *testing.T, st *ckpt.State, pl dist.Plan) *dist.Result {
		t.Helper()
		res, err := dist.Run(m, batches[2:], pl, append(append([]dist.Option(nil), opts...), dist.WithInitState(st))...)
		if err != nil {
			t.Fatalf("resuming %s's snapshot under %s: %v", st.Plan, pl, err)
		}
		if len(res.Losses) != 2 {
			t.Fatalf("resumed run produced %d losses, want 2", len(res.Losses))
		}
		return res
	}
	snaps := map[string]*ckpt.State{}
	for _, ps := range plans {
		ps := ps
		t.Run(ps, func(t *testing.T) {
			pl := mustPlan(t, ps)
			straight, err := dist.Run(m, batches, pl, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var snap *ckpt.State
			ckOpts := append(append([]dist.Option(nil), opts...),
				dist.WithCheckpoint(2, func(st *ckpt.State) {
					if st.Iter == 2 {
						snap = st
					}
				}))
			ck, err := dist.Run(m, batches, pl, ckOpts...)
			if err != nil {
				t.Fatal(err)
			}
			for i := range straight.Losses {
				if ck.Losses[i] != straight.Losses[i] {
					t.Fatalf("checkpointing perturbed the run: iter %d loss %v vs %v", i, ck.Losses[i], straight.Losses[i])
				}
			}
			if snap == nil {
				t.Fatal("no snapshot emitted at iteration 2")
			}
			if snap.Iter != 2 || snap.Cursor != 2 || snap.Plan != pl.String() || snap.Model != m.Name {
				t.Fatalf("snapshot metadata %+v, want iter=2 cursor=2 plan=%s model=%s", snap, pl, m.Name)
			}
			if len(snap.Losses) != 2 {
				t.Fatalf("snapshot carries %d losses, want 2", len(snap.Losses))
			}
			// Round-trip through the wire format so the resume also
			// proves encode/decode fidelity, not just in-memory cloning.
			enc, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := ckpt.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			snaps[ps] = restored
			resumed := resume(t, restored, pl)
			for i := range resumed.Losses {
				if resumed.Losses[i] != straight.Losses[2+i] {
					t.Fatalf("resume diverged at iter %d: %v vs straight %v (Δ=%g)",
						2+i, resumed.Losses[i], straight.Losses[2+i],
						math.Abs(resumed.Losses[i]-straight.Losses[2+i]))
				}
			}
		})
	}
	if t.Failed() {
		return
	}
	want, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ref := snaps["serial"]
	for _, from := range cross {
		st := snaps[from]
		assertStateNear(t, from+" snapshot", st.Params, ref.Params)
		assertStateNear(t, from+" snapshot velocity", st.Vel, ref.Vel)
		for _, to := range cross {
			if to == from {
				continue
			}
			got := resume(t, st, mustPlan(t, to))
			for i, loss := range got.Losses {
				if d := math.Abs(loss - want.Losses[2+i]); d > tol || math.IsNaN(d) {
					t.Fatalf("%s → %s iter %d: loss %v vs straight serial %v (Δ %.3e > %g)", from, to, 2+i, loss, want.Losses[2+i], d, tol)
				}
			}
		}
	}
}

// assertStateNear demands two canonical states agree field by field:
// same presence, same shape, every element within 1e-9.
func assertStateNear(t *testing.T, what string, got, want []nn.Params) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d layers, want %d", what, len(got), len(want))
	}
	for l := range want {
		g := [4]*tensor.Tensor{got[l].W, got[l].B, got[l].Gamma, got[l].Beta}
		for f, w := range [4]*tensor.Tensor{want[l].W, want[l].B, want[l].Gamma, want[l].Beta} {
			if (g[f] == nil) != (w == nil) {
				t.Fatalf("%s layer %d field %d: present=%v, serial's present=%v", what, l, f, g[f] != nil, w != nil)
			}
			if w == nil {
				continue
			}
			if !tensor.EqualShapes(g[f].Shape(), w.Shape()) {
				t.Fatalf("%s layer %d field %d: shape %v, serial's %v", what, l, f, g[f].Shape(), w.Shape())
			}
			for i, v := range w.Data() {
				if d := math.Abs(g[f].Data()[i] - v); d > 1e-9 || math.IsNaN(d) {
					t.Fatalf("%s layer %d field %d [%d]: %v vs serial's %v (Δ %.3e)", what, l, f, i, g[f].Data()[i], v, d)
				}
			}
		}
	}
}

// TestElasticRecoveryParity injects the death of PE 3 at iteration 2
// into p=8 worlds and demands the supervisor recover WITHOUT human
// intervention: re-plan at p=7 via the oracle ladder, restore the
// iteration-2 checkpoint, and finish with ≤1e-6 parity against the
// sequential baseline over the whole stitched loss series.
func TestElasticRecoveryParity(t *testing.T) {
	for _, tc := range []struct {
		model string
		plan  string
	}{
		{"tinycnn-nobn", "data:8"},
		{"tinycnn-nobn", "df:4x2"},
		{"tinyresnet", "data:8"},
	} {
		tc := tc
		t.Run(tc.model+"/"+tc.plan, func(t *testing.T) {
			m, err := model.ByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			batches := toyBatches(t, m, 4, 8)
			seq := serial(t, m, batches)
			res, err := dist.RunElastic(m, batches, mustPlan(t, tc.plan),
				dist.Policy{CkptEvery: 1, MaxRetries: 3, CkptDir: t.TempDir()},
				dist.WithSeed(seed), dist.WithLR(lr), dist.WithFailAt(3, 2))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Recoveries) != 1 {
				t.Fatalf("supervisor logged %d recoveries, want 1: %+v", len(res.Recoveries), res.Recoveries)
			}
			rec := res.Recoveries[0]
			if rec.PE != 3 || rec.FailIter != 2 || rec.ResumeIter != 2 {
				t.Fatalf("recovery %+v, want PE=3 FailIter=2 ResumeIter=2", rec)
			}
			if rec.From != mustPlan(t, tc.plan).String() {
				t.Fatalf("recovery migrated from %q, want %q", rec.From, tc.plan)
			}
			to := mustPlan(t, rec.To)
			if to.P() >= 8 {
				t.Fatalf("recovery plan %q did not shrink the world below 8 PEs", rec.To)
			}
			assertParity(t, seq, res.Result, nil)
		})
	}
}

// TestElasticGivesUpAfterMaxRetries: a failure the ladder cannot save
// (serial — no checkpoint ever taken, no smaller world) surfaces as an
// error instead of looping forever.
func TestElasticExhaustsRetries(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 2, 4)
	_, err := dist.RunElastic(m, batches, dist.Plan{Strategy: core.Serial},
		dist.Policy{CkptEvery: 1, MaxRetries: 2},
		dist.WithSeed(seed), dist.WithLR(lr), dist.WithFailAt(0, 0))
	if err == nil {
		t.Fatal("a serial world with a dead PE 0 cannot recover, but RunElastic returned nil error")
	}
}

// TestMigratePlanMidRun is the live-migration acceptance test:
// batches 0..1 under data:8, canonical checkpoint at the switch point,
// batches 2..3 under df:4x2 — and the stitched series still matches
// sequential SGD within 1e-6.
func TestMigratePlanMidRun(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 4, 8)
	opts := []dist.Option{dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9)}
	baseline, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var snap *ckpt.State
	first, err := dist.Run(m, batches[:2], mustPlan(t, "data:8"),
		append(opts[:len(opts):len(opts)], dist.WithCheckpoint(2, func(st *ckpt.State) { snap = st }))...)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Iter != 2 {
		t.Fatal("data:8 emitted no checkpoint at the switch point")
	}
	res, err := dist.Run(m, batches[2:], mustPlan(t, "df:4x2"),
		append(opts[:len(opts):len(opts)], dist.WithInitState(snap))...)
	if err != nil {
		t.Fatal(err)
	}
	if res.P1 != 4 || res.P2 != 2 {
		t.Fatalf("migrated run reports grid %dx%d, want 4x2", res.P1, res.P2)
	}
	res.Losses = append(first.Losses, res.Losses...)
	assertParity(t, baseline, res, nil)
}

// TestResumeRejectsWrongModel: a checkpoint written for one model must
// not restore into another.
func TestResumeRejectsWrongModel(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 2, 4)
	var snap *ckpt.State
	if _, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial},
		dist.WithSeed(seed), dist.WithLR(lr),
		dist.WithCheckpoint(1, func(st *ckpt.State) { snap = st })); err != nil {
		t.Fatal(err)
	}
	other := model.TinyCNN()
	otherBatches := toyBatches(t, other, 1, 4)
	if _, err := dist.Run(other, otherBatches, dist.Plan{Strategy: core.Serial},
		dist.WithSeed(seed), dist.WithLR(lr), dist.WithInitState(snap)); err == nil {
		t.Fatal("restoring a tinycnn-nobn checkpoint into tinycnn must fail")
	}
}
