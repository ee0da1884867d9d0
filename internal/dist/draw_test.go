// Tests of the shared initial-parameter draw: every PE of every run of
// one (model geometry, seed) copies its replica from one draw, which
// nothing writes, and a resumed run draws nothing.
package dist_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"paradl/internal/ckpt"
	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// drawOf is a fresh nn.NewNetwork draw of m from seed s: the parameters
// the memo must hold for that key.
func drawOf(m *nn.Model, s int64) []nn.Params {
	return nn.NewNetwork(m, rand.New(rand.NewSource(s))).Params
}

// sameParams reports whether a and b hold the same parameters bit for
// bit, nil fields alike.
func sameParams(a, b []nn.Params) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		fa := [4]*tensor.Tensor{a[l].W, a[l].B, a[l].Gamma, a[l].Beta}
		fb := [4]*tensor.Tensor{b[l].W, b[l].B, b[l].Gamma, b[l].Beta}
		for f := range fa {
			if (fa[f] == nil) != (fb[f] == nil) {
				return false
			}
			if fa[f] != nil && (!tensor.EqualShapes(fa[f].Shape(), fb[f].Shape()) ||
				!sameBits(fa[f].Data(), fb[f].Data())) {
				return false
			}
		}
	}
	return true
}

// sameBits reports whether a and b are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// runSeed runs pl on m at seed s and the suite's learning rate.
func runSeed(t *testing.T, m *nn.Model, batches []dist.Batch, pl dist.Plan, s int64, opts ...dist.Option) *dist.Result {
	t.Helper()
	res, err := dist.Run(m, batches, pl, append([]dist.Option{dist.WithSeed(s), dist.WithLR(lr)}, opts...)...)
	if err != nil {
		t.Fatalf("%s: %v", pl, err)
	}
	return res
}

// TestSharedDrawOncePerKey: a cold data:4 run draws once for its four
// PEs, and a second run of the same key draws nothing and reports the
// same losses bit for bit.
func TestSharedDrawOncePerKey(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 2, 8)
	const s = 9101 // a seed no other test draws, so the first run misses
	before := dist.DrawMissesForTest()
	first := runSeed(t, m, batches, mustPlan(t, "data:4"), s)
	if got := dist.DrawMissesForTest() - before; got != 1 {
		t.Fatalf("a cold data:4 run drew %d times, want once", got)
	}
	second := runSeed(t, m, batches, mustPlan(t, "data:4"), s)
	if got := dist.DrawMissesForTest() - before; got != 1 {
		t.Fatalf("a second run of the same key drew again (%d draws)", got)
	}
	if !sameBits(first.Losses, second.Losses) {
		t.Fatalf("losses differ between runs of one key: %v vs %v", first.Losses, second.Losses)
	}
	if !sameParams(dist.DrawnParamsForTest(), drawOf(m, s)) {
		t.Fatal("memo does not hold the seed's NewNetwork draw")
	}
}

// TestSharedDrawKeys: models that differ only in input size, and runs
// that differ only in seed, each get their own draw. The two models'
// weights have the same shapes, but a conv's σ reads its input size.
func TestSharedDrawKeys(t *testing.T) {
	pooled := func(side int) *nn.Model {
		b := nn.NewBuilder("pooled", 2, []int{side, side})
		b.Conv(4, 3, 1, 1).ReLU()
		b.Pool(nn.MaxPool, side, side, 0) // 1×1 out: the FC sees 4 inputs
		b.FC(3)
		return b.MustBuild()
	}
	small, large := pooled(8), pooled(12)
	if !tensor.EqualShapes(drawOf(small, 1)[0].W.Shape(), drawOf(large, 1)[0].W.Shape()) {
		t.Fatal("the two models' conv weights should have equal shapes")
	}
	keys := []struct {
		m *nn.Model
		s int64
	}{{small, 9201}, {large, 9201}, {small, 9202}, {small, 9201}}
	for i, k := range keys {
		before := dist.DrawMissesForTest()
		runSeed(t, k.m, toyBatches(t, k.m, 1, 4), dist.Plan{Strategy: core.Serial}, k.s)
		if got := dist.DrawMissesForTest() - before; got != 1 {
			t.Fatalf("key %d (input %v, seed %d) drew %d times, want once", i, k.m.InputDims, k.s, got)
		}
		if !sameParams(dist.DrawnParamsForTest(), drawOf(k.m, k.s)) {
			t.Fatalf("key %d (input %v, seed %d): memo holds another key's draw", i, k.m.InputDims, k.s)
		}
	}
	if sameParams(drawOf(small, 9201), drawOf(large, 9201)) {
		t.Fatal("input size does not change the draw, so this test checks nothing")
	}
}

// TestDrawKeyCoversDraw: the memo's key restates which layer fields
// nn.NewNetwork's draw reads, so it is held to the draw itself. Every
// field of every layer of the zoo models, and of each model, is nudged
// in turn; a nudge that changes the draw but not the key would hand one
// geometry another's draw. A draw that starts reading one more field
// fails here until the key reads it too.
func TestDrawKeyCoversDraw(t *testing.T) {
	changed := 0
	for _, m := range []*nn.Model{model.TinyCNN(), model.TinyResNet(), model.Tiny3D()} {
		want, key := drawOf(m, 1), dist.DrawKeyForTest(m, 1)
		for l := -1; l < len(m.Layers); l++ {
			for f := 0; ; f++ {
				c, ok, more := nudged(m, l, f)
				if !more {
					break
				}
				if !ok {
					continue
				}
				got := tryDraw(c)
				if got == nil || sameParams(got, want) {
					continue // the nudge leaves no runnable model, or the draw ignores the field
				}
				changed++
				if slices.Equal(dist.DrawKeyForTest(c, 1), key) {
					field := reflect.TypeOf(nn.Layer{}).Field(f).Name
					if l < 0 {
						field = reflect.TypeOf(nn.Model{}).Field(f).Name
					}
					t.Errorf("%s: nudging %s of layer %d changes the draw but not its key", m.Name, field, l)
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("no nudge changed the draw, so this test checks nothing")
	}
}

// nudged returns a copy of m with field f of layer l (of the model
// itself when l < 0) moved by one: an integer incremented, a bool
// flipped, a string extended, an integer slice's first element
// incremented. m is left untouched. ok is false for a field it cannot
// move (an empty slice, the layer list); more is false past the last
// field.
func nudged(m *nn.Model, l, f int) (c *nn.Model, ok, more bool) {
	cp := *m
	cp.Layers = slices.Clone(m.Layers)
	v := reflect.ValueOf(&cp).Elem()
	if l >= 0 {
		v = v.FieldByName("Layers").Index(l)
	}
	if f >= v.NumField() {
		return nil, false, false
	}
	fv := v.Field(f)
	switch {
	case fv.CanInt():
		fv.SetInt(fv.Int() + 1)
	case fv.Kind() == reflect.Bool:
		fv.SetBool(!fv.Bool())
	case fv.Kind() == reflect.String:
		fv.SetString(fv.String() + "'")
	case fv.Kind() == reflect.Slice && fv.Len() > 0 && fv.Type().Elem().Kind() == reflect.Int:
		s := reflect.MakeSlice(fv.Type(), fv.Len(), fv.Len())
		reflect.Copy(s, fv)
		s.Index(0).SetInt(s.Index(0).Int() + 1)
		fv.Set(s)
	default:
		return nil, false, true
	}
	return &cp, true, true
}

// tryDraw is drawOf(m, 1), or nil when NewNetwork rejects m.
func tryDraw(m *nn.Model) (p []nn.Params) {
	defer func() {
		if recover() != nil {
			p = nil
		}
	}()
	return drawOf(m, 1)
}

// TestSharedDrawUntouchedByTraining: after runs under every engine —
// replicated, filter- and channel-sharded, pipelined, with momentum —
// the memo still holds a fresh draw bit for bit, so no PE writes into
// the parameters it copies from.
func TestSharedDrawUntouchedByTraining(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 2, 4)
	const s = 9301
	before := dist.DrawMissesForTest()
	for _, plan := range []string{"serial", "data:2", "filter:2", "channel:2", "spatial:2", "pipeline:2", "df:2x2"} {
		runSeed(t, m, batches, mustPlan(t, plan), s, dist.WithMomentum(0.9))
	}
	if got := dist.DrawMissesForTest() - before; got != 1 {
		t.Fatalf("seven runs of one key drew %d times, want once", got)
	}
	if !sameParams(dist.DrawnParamsForTest(), drawOf(m, s)) {
		t.Fatal("training wrote into the shared draw")
	}
}

// TestSharedDrawConcurrentRuns: runs of two models from several
// goroutines at once, each evicting the other's draw, report the losses
// of the same runs made one at a time. Under -race this checks that PEs
// copying from one draw while another run replaces it share nothing
// they write.
func TestSharedDrawConcurrentRuns(t *testing.T) {
	models := []*nn.Model{model.TinyCNNNoBN(), model.Tiny3D()}
	plans := []dist.Plan{mustPlan(t, "data:2"), mustPlan(t, "filter:2")}
	batches := make([][]dist.Batch, len(models))
	want := make([][]float64, len(models))
	for i, m := range models {
		batches[i] = toyBatches(t, m, 2, 4)
		want[i] = runSeed(t, m, batches[i], plans[i], 9401).Losses
	}
	const workers, runs = 4, 3
	errs := make(chan string, workers*runs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				i := (w + r) % len(models)
				res, err := dist.Run(models[i], batches[i], plans[i], dist.WithSeed(9401), dist.WithLR(lr))
				switch {
				case err != nil:
					errs <- err.Error()
				case !sameBits(res.Losses, want[i]):
					errs <- models[i].Name + ": losses differ from the run made alone"
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestResumeDrawsNothing: a WithInitState run builds its replicas from
// the snapshot alone. Another key is drawn first, so a resume that drew
// would miss; it must not, and it must still continue the run bit for
// bit.
func TestResumeDrawsNothing(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 4, 4)
	pl := mustPlan(t, "filter:2")
	const s = 9501
	whole := runSeed(t, m, batches, pl, s, dist.WithMomentum(0.9))
	var snap *ckpt.State
	runSeed(t, m, batches[:2], pl, s, dist.WithMomentum(0.9), dist.WithCheckpoint(2, func(st *ckpt.State) { snap = st }))
	if snap == nil {
		t.Fatal("no checkpoint at iteration 2")
	}
	runSeed(t, m, batches[:1], dist.Plan{Strategy: core.Serial}, s+1) // evict the key
	before := dist.DrawMissesForTest()
	res, err := dist.Run(m, batches[2:], pl, dist.WithInitState(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := dist.DrawMissesForTest() - before; got != 0 {
		t.Fatalf("a resumed run drew %d times, want none", got)
	}
	if !sameBits(res.Losses, whole.Losses[2:]) {
		t.Fatalf("resumed losses %v, uninterrupted %v", res.Losses, whole.Losses[2:])
	}
}
