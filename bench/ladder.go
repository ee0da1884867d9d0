package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"paradl/internal/ckpt"
	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/profile"
	"paradl/internal/serve"
	"paradl/internal/tensor"
)

// The ladder is the set of per-layer rungs a traced run times by
// calling the program's public functions directly: tensor kernels on
// the geometries of the workload's own model, the nn step and its
// per-layer split, each collective per regime, checkpoint encode and
// I/O, the planner's pure stages, and the built CLI.

// programSeed is the program's own parameter-initialisation seed; it
// stays fixed whatever -seed generates the inputs.
const programSeed = 1

type ladder struct {
	rec       *spanRecorder
	rng       *rand.Rand
	cores     *settler
	perRung   time.Duration // time budget of one rung
	outDir    string
	out       map[string]float64
	attempted int
	failed    int
}

// rung times fn in samples of batch calls until the rung's budget is
// spent (at least minSamples samples) and returns seconds per call,
// one value per sample. Every sample is one span.
func (l *ladder) rung(name string, batch, minSamples int, fn func()) []float64 {
	var perCall []float64
	for start := time.Now(); len(perCall) < minSamples || time.Since(start) < l.perRung; {
		id := l.rec.begin(name, -1)
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		d := time.Since(t0)
		l.rec.end(id)
		perCall = append(perCall, d.Seconds()/float64(batch))
	}
	l.attempted += len(perCall)
	return perCall
}

// ms, us and ns store the median of a rung under name.
func (l *ladder) ms(name string, perCall []float64) { l.out[name] = median(perCall) * 1e3 }
func (l *ladder) us(name string, perCall []float64) { l.out[name] = median(perCall) * 1e6 }
func (l *ladder) ns(name string, perCall []float64) { l.out[name] = median(perCall) * 1e9 }

// allocsOf returns heap objects and KiB allocated per call of fn.
func allocsOf(calls int, fn func()) (objects, kib float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	n := float64(calls)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
}

// layerIO is what one layer saw in a captured step: its input, the
// gradient of its output, and its forward state.
type layerIO struct {
	x, dy *tensor.Tensor
	st    *nn.LayerState
}

// capture runs one forward and backward pass through net's graph and
// keeps every layer's input and output gradient, so a kernel rung can
// be called on exactly the tensors the model hands it.
func capture(net *nn.Network, b dist.Batch) ([]layerIO, *tensor.Tensor) {
	g := len(net.Model.Layers)
	ios := make([]layerIO, g)
	logits := net.Graph().ForwardRange(0, g, b.X, func(l int, x *tensor.Tensor) *tensor.Tensor {
		y, st := net.ForwardLayer(l, x)
		ios[l].x, ios[l].st = x, st
		return y
	})
	_, dLogits := tensor.SoftmaxCrossEntropy(logits, b.Labels)
	net.Graph().BackwardRange(0, g, dLogits, func(l int, dy *tensor.Tensor) *tensor.Tensor {
		ios[l].dy = dy.Clone() // the walk may accumulate into dy later
		dx, _ := net.BackwardLayer(l, dy, ios[l].st)
		return dx
	})
	return ios, logits
}

// heaviest returns the index of the layer with the most forward FLOPs
// among those pred accepts, or -1.
func heaviest(m *nn.Model, pred func(l *nn.Layer) bool) int {
	best, bestFLOPs := -1, int64(-1)
	for i := range m.Layers {
		if l := &m.Layers[i]; pred(l) && l.FwdFLOPs() > bestFLOPs {
			best, bestFLOPs = i, l.FwdFLOPs()
		}
	}
	return best
}

func isConv(rank int, unitKernel bool) func(*nn.Layer) bool {
	return func(l *nn.Layer) bool {
		if l.Kind != nn.Conv || len(l.In) != rank {
			return false
		}
		unit := true
		for _, k := range l.Kernel {
			unit = unit && k == 1
		}
		return unit == unitKernel
	}
}

func ofKind(k nn.LayerKind) func(*nn.Layer) bool {
	return func(l *nn.Layer) bool { return l.Kind == k }
}

// captured builds a network for m with the program's fixed seed and
// captures one step on a generated batch.
func (l *ladder) captured(m *nn.Model, batch int) (*nn.Network, []layerIO, dist.Batch) {
	net := nn.NewNetwork(m, rand.New(rand.NewSource(programSeed)))
	b := genBatches(m, l.rng, 1, batch)[0]
	ios, _ := capture(net, b)
	return net, ios, b
}

// convRungs times the three convolution kernels of layer li and
// returns forward seconds per call (the base of conv_gflops).
func (l *ladder) convRungs(prefix string, net *nn.Network, ios []layerIO, li int, split bool) float64 {
	spec := &net.Model.Layers[li]
	cs := tensor.ConvSpec{Stride: spec.Stride, Pad: spec.Pad}
	p, io := net.Params[li], ios[li]
	fwd := l.rung(prefix+"_fwd", 1, 5, func() { tensor.ConvForward(io.x, p.W, p.B, cs) })
	l.ms(prefix+"_fwd_ms", fwd)
	bwdData := func() { tensor.ConvBackwardData(io.dy, p.W, io.x.Shape(), cs) }
	bwdWeight := func() { tensor.ConvBackwardWeight(io.dy, io.x, p.W.Shape(), cs) }
	if split {
		l.ms(prefix+"_bwd_data_ms", l.rung(prefix+"_bwd_data", 1, 5, bwdData))
		l.ms(prefix+"_bwd_weight_ms", l.rung(prefix+"_bwd_weight", 1, 5, bwdWeight))
	} else {
		l.ms(prefix+"_bwd_ms", l.rung(prefix+"_bwd", 1, 5, func() { bwdData(); bwdWeight() }))
	}
	return median(fwd)
}

// tensorRungs times the tensor kernels. The 3x3 convolution, FC, pool,
// ReLU, loss and SGD rungs use the workload's own model m; the 1x1,
// 3-D and batch-norm rungs always use the zoo models that have them.
func (l *ladder) tensorRungs(m *nn.Model, batch int) {
	net, ios, b := l.captured(m, batch)
	rank := len(m.InputDims)
	if li := heaviest(m, isConv(rank, false)); li >= 0 {
		fwd := l.convRungs("tensor.conv", net, ios, li, true)
		flops := float64(m.Layers[li].FwdFLOPs()) * float64(batch) // computed from shapes
		l.out["tensor.conv_gflops"] = flops / fwd / 1e9
		spec := &m.Layers[li]
		cs := tensor.ConvSpec{Stride: spec.Stride, Pad: spec.Pad}
		l.out["tensor.conv_allocs"], l.out["tensor.conv_alloc_kb"] = allocsOf(3, func() {
			tensor.ConvForward(ios[li].x, net.Params[li].W, net.Params[li].B, cs)
		})
	}
	if li := heaviest(m, ofKind(nn.FC)); li >= 0 {
		p, io := net.Params[li], ios[li]
		n := io.x.Dim(0)
		flat := io.x.Reshape(n, io.x.Len()/n)
		l.ms("tensor.fc_fwd_ms", l.rung("tensor.fc_fwd", 1, 5, func() { tensor.FCForward(flat, p.W, p.B) }))
		l.ms("tensor.fc_bwd_ms", l.rung("tensor.fc_bwd", 1, 5, func() { tensor.FCBackward(io.dy, flat, p.W, io.x.Shape()) }))
	}
	if li := heaviest(m, ofKind(nn.Pool)); li >= 0 {
		spec, io := &m.Layers[li], ios[li]
		ps := tensor.PoolSpec{Kind: spec.PoolKind, Window: spec.Kernel, Stride: spec.Stride, Pad: spec.Pad}
		l.ms("tensor.pool_ms", l.rung("tensor.pool", 1, 5, func() {
			_, arg := tensor.PoolForward(io.x, ps)
			tensor.PoolBackward(io.dy, io.x.Shape(), ps, arg)
		}))
	}
	if li := heaviest(m, ofKind(nn.ReLU)); li >= 0 {
		io := ios[li]
		l.ms("tensor.relu_ms", l.rung("tensor.relu", 1, 5, func() {
			tensor.ReLUForward(io.x)
			tensor.ReLUBackward(io.dy, io.x)
		}))
	}
	logits := tensor.New(batch, m.Classes).RandN(l.rng, 1)
	l.us("tensor.softmax_xent_us", l.rung("tensor.softmax_xent", 16, 5, func() { tensor.SoftmaxCrossEntropy(logits, b.Labels) }))
	if li := heaviest(m, func(x *nn.Layer) bool { return x.Kind == nn.Conv || x.Kind == nn.FC }); li >= 0 {
		big := li
		for i := range m.Layers {
			if m.Layers[i].WeightSize() > m.Layers[big].WeightSize() {
				big = i
			}
		}
		w := net.Params[big].W.Clone()
		dw := tensor.New(w.Shape()...).RandN(l.rng, 1)
		l.ms("tensor.sgd_step_ms", l.rung("tensor.sgd_step", 1, 5, func() { tensor.SGDStep(w, dw, 1e-12) }))
	}

	resnet := model.TinyResNet()
	rnet, rios, _ := l.captured(resnet, 8)
	l.convRungs("tensor.conv1x1", rnet, rios, heaviest(resnet, isConv(2, true)), false)
	vol := model.Tiny3D()
	vnet, vios, _ := l.captured(vol, 8)
	l.convRungs("tensor.conv3d", vnet, vios, heaviest(vol, isConv(3, false)), false)
	bnm := model.TinyCNN()
	bnet, bios, _ := l.captured(bnm, 8)
	bi := heaviest(bnm, ofKind(nn.BatchNorm))
	l.ms("tensor.bn_ms", l.rung("tensor.bn", 1, 5, func() {
		_, st := tensor.BNForward(bios[bi].x, bnet.Params[bi].Gamma, bnet.Params[bi].Beta, 1e-5)
		tensor.BNBackward(bios[bi].dy, bnet.Params[bi].Gamma, st)
	}))
}

// nnRungs times the single-worker training step of m and splits it by
// layer: a step span whose children are the per-layer forward and
// backward calls, the loss and the update, so the step's self time is
// what the graph walk adds on top of its kernels.
func (l *ladder) nnRungs(m *nn.Model, batch int) {
	net := nn.NewNetwork(m, rand.New(rand.NewSource(programSeed)))
	b := genBatches(m, l.rng, 1, batch)[0]
	const lr = 0.01
	l.ms("nn.train_step_ms", l.rung("nn.train_step", 1, 3, func() { net.TrainStep(b.X, b.Labels, lr) }))
	l.out["nn.train_step_allocs"], l.out["nn.train_step_alloc_kb"] = allocsOf(2, func() { net.TrainStep(b.X, b.Labels, lr) })

	logits, states := net.Forward(b.X)
	_, dLogits := tensor.SoftmaxCrossEntropy(logits, b.Labels)
	_, grads := net.Backward(dLogits, states)
	l.ms("nn.fwd_ms", l.rung("nn.fwd", 1, 3, func() { net.Forward(b.X) }))
	l.ms("nn.bwd_ms", l.rung("nn.bwd", 1, 3, func() { net.Backward(dLogits.Clone(), states) }))
	l.ms("nn.step_ms", l.rung("nn.step", 1, 3, func() { net.Step(grads, 1e-12) }))
	l.us("nn.compile_graph_us", l.rung("nn.compile_graph", 16, 5, func() {
		if _, err := nn.CompileGraph(m); err != nil {
			l.failed++
		}
	}))

	g := len(m.Layers)
	var stepIDs []int
	l.rung("nn.split_step", 1, 3, func() {
		step := l.rec.begin("nn.split", -1)
		stepIDs = append(stepIDs, step)
		sts := make([]*nn.LayerState, g)
		out := net.Graph().ForwardRange(0, g, b.X, func(i int, x *tensor.Tensor) *tensor.Tensor {
			id := l.rec.begin("nn.layer."+m.Layers[i].Kind.String(), step)
			y, st := net.ForwardLayer(i, x)
			l.rec.end(id)
			sts[i] = st
			return y
		})
		id := l.rec.begin("nn.loss", step)
		_, d := tensor.SoftmaxCrossEntropy(out, b.Labels)
		l.rec.end(id)
		gs := make([]nn.Grads, g)
		net.Graph().BackwardRange(0, g, d, func(i int, dy *tensor.Tensor) *tensor.Tensor {
			id := l.rec.begin("nn.layer."+m.Layers[i].Kind.String(), step)
			dx, gr := net.BackwardLayer(i, dy, sts[i])
			l.rec.end(id)
			gs[i] = gr
			return dx
		})
		id = l.rec.begin("nn.update", step)
		net.Step(gs, lr)
		l.rec.end(id)
		l.rec.end(step)
	})
	self, _ := l.rec.selfByName()
	var layers, stepTotal int64
	for _, k := range []nn.LayerKind{nn.Conv, nn.Pool, nn.FC, nn.ReLU, nn.BatchNorm} {
		layers += self["nn.layer."+k.String()]
	}
	for _, id := range stepIDs {
		stepTotal += l.rec.duration(id)
	}
	if layers > 0 && stepTotal > 0 {
		l.out["nn.conv_share"] = float64(self["nn.layer."+nn.Conv.String()]) / float64(layers)
		l.out["nn.fc_share"] = float64(self["nn.layer."+nn.FC.String()]) / float64(layers)
		l.out["nn.graph_overhead_pct"] = float64(self["nn.split"]) / float64(stepTotal) * 100
	}
}

// collective times op on a fresh p-PE world: every sample, each PE
// prepares its inputs untimed, the PEs meet at a barrier, and rank 0
// times batch calls. Rank 0 decides after each sample whether the
// budget allows another and tells the others through the barrier's
// scalar allreduce. One last batch is bracketed by allocation counters.
// It returns seconds per call per sample and heap objects per call
// (all PEs together).
func (l *ladder) collective(name string, p, batch int,
	prepare func(c *dist.Comm) []*tensor.Tensor,
	op func(c *dist.Comm, in []*tensor.Tensor)) (perCall []float64, objects float64) {

	const minSamples = 5
	l.cores.settle() // the previous rung may have been single-threaded
	w := dist.NewWorld(p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(c *dist.Comm) {
			defer wg.Done()
			start := time.Now()
			for more := true; more; {
				in := prepare(c)
				c.AllReduceScalar(0)
				var id int
				if c.Rank() == 0 {
					id = l.rec.begin(name, -1)
				}
				t0 := time.Now()
				op(c, in)
				d := time.Since(t0)
				vote := 0.0
				if c.Rank() == 0 {
					l.rec.end(id)
					perCall = append(perCall, d.Seconds()/float64(batch))
					if len(perCall) < minSamples || time.Since(start) < l.perRung {
						vote = 1
					}
				}
				more = c.AllReduceScalar(vote) > 0
			}
			in := prepare(c)
			var before, after runtime.MemStats
			c.AllReduceScalar(0)
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			op(c, in)
			c.AllReduceScalar(0)
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				objects = float64(after.Mallocs-before.Mallocs) / float64(batch)
			}
		}(w.Comm(r))
	}
	wg.Wait()
	l.attempted += len(perCall)
	return perCall, objects
}

func filled(n int) *tensor.Tensor {
	t := tensor.New(n)
	t.Fill(1)
	return t
}

// collectiveRungs times each collective in each regime: binomial tree
// (n=32), double binary tree (n=128), ring (n>=4096).
func (l *ladder) collectiveRungs() {
	const batch = 8
	one := func(n int) func(*dist.Comm) []*tensor.Tensor {
		return func(*dist.Comm) []*tensor.Tensor { return []*tensor.Tensor{filled(n)} }
	}
	many := func(n int) func(*dist.Comm) []*tensor.Tensor {
		return func(*dist.Comm) []*tensor.Tensor {
			in := make([]*tensor.Tensor, batch)
			for i := range in {
				in[i] = filled(n)
			}
			return in
		}
	}
	// The reduced tensor is fed back as the next input: allreduce owns
	// its argument, and eight doublings stay far from overflow.
	allreduce := func(c *dist.Comm, in []*tensor.Tensor) {
		t := in[0]
		for i := 0; i < batch; i++ {
			t = c.AllReduceSum(t)
		}
	}
	for _, p := range []int{2, 4} {
		for _, n := range []int{32, 128, 4096, 262144} {
			name := fmt.Sprintf("dist.allreduce_us.p%d.n%d", p, n)
			perCall, objects := l.collective(name, p, batch, one(n), allreduce)
			l.us(name, perCall)
			if p == 2 && n == 262144 {
				// Bytes a PE moves in a ring allreduce, computed from
				// the size: 2(p-1)/p of the 8n-byte buffer.
				moved := float64(8*n) * 2 * float64(p-1) / float64(p)
				l.out["dist.allreduce_mbps.p2.n262144"] = moved / median(perCall) / 1e6
				l.out["dist.allreduce_allocs.p2.n262144"] = objects
			}
		}
	}
	perCall, _ := l.collective("dist.iallreduce_us.p2.n262144", 2, batch, one(262144), func(c *dist.Comm, in []*tensor.Tensor) {
		t := in[0]
		for i := 0; i < batch; i++ {
			t = c.IAllReduceSum(t).Wait()
		}
	})
	l.us("dist.iallreduce_us.p2.n262144", perCall)
	perCall, _ = l.collective("dist.reduce_scatter_us.p2.n4096", 2, batch, many(4096), func(c *dist.Comm, in []*tensor.Tensor) {
		for _, t := range in {
			c.ReduceScatterSum(t, 0)
		}
	})
	l.us("dist.reduce_scatter_us.p2.n4096", perCall)
	perCall, _ = l.collective("dist.allgather_us.p2.n4096", 2, batch, many(4096), func(c *dist.Comm, in []*tensor.Tensor) {
		for _, t := range in {
			c.AllGather(t, 0)
		}
	})
	l.us("dist.allgather_us.p2.n4096", perCall)
	perCall, _ = l.collective("dist.allreduce_scalar_us.p2", 2, batch, one(1), func(c *dist.Comm, _ []*tensor.Tensor) {
		for i := 0; i < batch; i++ {
			c.AllReduceScalar(1)
		}
	})
	l.us("dist.allreduce_scalar_us.p2", perCall)
	// Ping-pong: batch round trips are 2*batch one-way messages.
	perCall, _ = l.collective("dist.sendrecv_us.n4096", 2, 2*batch, one(4096), func(c *dist.Comm, in []*tensor.Tensor) {
		t := in[0]
		for i := 0; i < batch; i++ {
			if c.Rank() == 0 {
				c.Send(1, t)
				t = c.Recv(1)
			} else {
				t = c.Recv(0)
				c.Send(0, t)
			}
		}
	})
	l.us("dist.sendrecv_us.n4096", perCall)
	l.us("dist.world_setup_us", l.rung("dist.world_setup", 1, 5, func() {
		w := dist.NewWorld(4)
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(c *dist.Comm) {
				defer wg.Done()
				c.AllReduceScalar(1)
			}(w.Comm(r))
		}
		wg.Wait()
	}))
}

// ckptRungs times checkpoint encode, decode, save, load and the async
// writer's hand-off on the state of bench-fcnet (the ~10 MB model),
// captured from a real data:2 run's checkpoint gather.
func (l *ladder) ckptRungs() error {
	m := benchFCNet()
	var st *ckpt.State
	_, err := dist.Run(m, genBatches(m, l.rng, 1, 4), dist.Plan{Strategy: core.Data, P1: 2},
		dist.WithCheckpoint(1, func(s *ckpt.State) { st = s }))
	if err != nil || st == nil {
		return fmt.Errorf("ckpt rungs: capturing state: %v", err)
	}
	enc, err := st.Encode()
	if err != nil {
		return fmt.Errorf("ckpt rungs: %w", err)
	}
	l.out["ckpt.state_mb"] = float64(len(enc)) / 1e6
	fail := func(err error) {
		if err != nil {
			l.failed++
		}
	}
	l.ms("ckpt.encode_ms", l.rung("ckpt.encode", 1, 3, func() { _, err := st.Encode(); fail(err) }))
	l.ms("ckpt.decode_ms", l.rung("ckpt.decode", 1, 3, func() { _, err := ckpt.Decode(enc); fail(err) }))
	dir := filepath.Join(l.outDir, fmt.Sprintf("ckpt-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	var path string
	l.ms("ckpt.save_ms", l.rung("ckpt.save", 1, 3, func() {
		p, err := ckpt.Save(dir, st)
		path = p
		fail(err)
	}))
	l.ms("ckpt.load_ms", l.rung("ckpt.load", 1, 3, func() { _, err := ckpt.Load(path); fail(err) }))
	w := ckpt.NewWriter(dir)
	l.ns("ckpt.writer_put_ns", l.rung("ckpt.writer_put", 256, 5, func() { w.Put(st) }))
	fail(w.Close())
	return nil
}

// plannerRungs times the planner's pure stages on resnet50, the
// paper's main model: build, profile, project, advise at two widths,
// resolve a wire reference, key it, and encode an answer.
func (l *ladder) plannerRungs() error {
	fail := func(err error) {
		if err != nil {
			l.failed++
		}
	}
	l.us("model.build_us", l.rung("model.build", 1, 5, func() { _, err := model.ByName("resnet50"); fail(err) }))
	m := model.ResNet50()
	sys := cluster.Default()
	dev := profile.NewDevice(sys.GPU)
	l.us("profile.profile_model_us", l.rung("profile.profile_model", 1, 5, func() { profile.ProfileModel(dev, m, 32) }))
	ref := func(p int) core.ConfigRef {
		return core.ConfigRef{Model: "resnet50", Cluster: sys.Name, D: 1281167, B: 32 * p, P: p}
	}
	cfg64, err := ref(64).Resolve()
	if err != nil {
		return fmt.Errorf("planner rungs: %w", err)
	}
	cfg1024, err := ref(1024).Resolve()
	if err != nil {
		return fmt.Errorf("planner rungs: %w", err)
	}
	l.us("core.project_us", l.rung("core.project", 1, 5, func() { _, err := core.Project(cfg64, core.Data); fail(err) }))
	l.us("core.advise_us.p64", l.rung("core.advise.p64", 1, 5, func() { _, err := core.Advise(cfg64); fail(err) }))
	l.us("core.advise_us.p1024", l.rung("core.advise.p1024", 1, 5, func() { _, err := core.Advise(cfg1024); fail(err) }))
	l.us("core.resolve_us", l.rung("core.resolve", 1, 5, func() { _, err := ref(64).Resolve(); fail(err) }))
	l.us("core.key_us", l.rung("core.key", 64, 5, func() { ref(64).Key() }))
	advs, err := core.Advise(cfg64)
	if err != nil {
		return fmt.Errorf("planner rungs: %w", err)
	}
	l.us("core.encode_us", l.rung("core.encode", 4, 5, func() { _, err := json.Marshal(advs); fail(err) }))
	return nil
}

// handlerRungs times the planner's handler directly, no socket: the
// hit path, the cold /advise path and the cold /sweep path (each call a
// fresh key, generated inside the timed call at well under 1% of it),
// and counts the hit path's allocations.
func (l *ladder) handlerRungs(seed int64) {
	h := serve.New().Handler()
	send := func(r planReq) {
		if !call(h, r) {
			l.failed++
		}
	}
	hot := genRequest(seed, ladderTagBase, kindAdvise)
	send(hot)
	l.us("serve.handler_hot_us", l.rung("serve.handler_hot", 16, 5, func() { send(hot) }))
	l.out["serve.hot_allocs_per_req"], _ = allocsOf(2000, func() { send(hot) })
	tag := ladderTagBase
	fresh := func(kind int) func() {
		return func() {
			tag++
			send(genRequest(seed, tag, kind))
		}
	}
	l.us("serve.handler_cold_us", l.rung("serve.handler_cold", 1, 20, fresh(kindAdvise)))
	l.ms("serve.handler_sweep_cold_ms", l.rung("serve.handler_sweep_cold", 1, 10, fresh(kindSweep)))
}

// buildCLI builds cmd/paradl into outDir; the cmd rungs exec it.
func buildCLI(outDir string) (string, error) {
	bin := filepath.Join(outDir, "paradl")
	cmd := exec.Command("go", "build", "-o", bin, "paradl/cmd/paradl")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/paradl: %v: %s", err, out)
	}
	return bin, nil
}

// cmdRungs times two whole-process runs of the built CLI: a real
// data:2 training run with its parity table, and one advise call.
func (l *ladder) cmdRungs(bin string) {
	run := func(args ...string) func() {
		return func() {
			if err := exec.Command(bin, args...).Run(); err != nil {
				l.failed++
			}
		}
	}
	l.ms("cmd.paradl_train_ms", l.rung("cmd.paradl_train", 1, 3, run("-train", "data:2")))
	l.ms("cmd.paradl_advise_ms", l.rung("cmd.paradl_advise", 1, 3, run("-model", "resnet50", "-gpus", "64", "-advise")))
}
