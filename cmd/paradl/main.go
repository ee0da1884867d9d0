// Command paradl is the oracle CLI: it projects computation time,
// communication time and per-PE memory for a CNN model under any of the
// paper's parallelization strategies, ranks all strategies for a
// resource budget (ParaDL's "suggesting the best strategy" use, §4.1),
// or — with -train — executes a plan for real on the tiny zoo and
// prints the value-parity table against sequential SGD.
//
// Examples:
//
//	paradl -model resnet50 -strategy data -gpus 64 -batch 32
//	paradl -model vgg16 -advise -gpus 256 -batch 8
//	paradl -model cosmoflow -strategy ds -gpus 64 -p2 4 -batch-global 16
//	paradl -calibrate
//	paradl -train ds:2x2
//	paradl -train dp:2x3
//	paradl -train data:4 -model tinyresnet
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/profile"
	"paradl/internal/report"
	"paradl/internal/trace"
)

func main() {
	var (
		modelName   = flag.String("model", "resnet50", "model: resnet50|resnet152|vgg16|cosmoflow")
		strategy    = flag.String("strategy", "data", "strategy: data|spatial|pipeline|filter|channel|df|ds|serial")
		gpus        = flag.Int("gpus", 64, "total number of GPUs")
		batch       = flag.Int("batch", 32, "samples per GPU (weak scaling)")
		batchGlobal = flag.Int("batch-global", 0, "global mini-batch (overrides -batch; for strong scaling)")
		p1          = flag.Int("p1", 0, "hybrid: number of data-parallel groups")
		p2          = flag.Int("p2", 0, "hybrid: model-parallel PEs per group")
		segments    = flag.Int("segments", 4, "pipeline micro-batch segments S")
		phi         = flag.Float64("phi", 0, "contention coefficient φ (0 = automatic)")
		advise      = flag.Bool("advise", false, "rank all strategies instead of projecting one")
		findings    = flag.Bool("findings", false, "report detected limitations/bottlenecks (Table 6)")
		calibrate   = flag.Bool("calibrate", false, "re-derive α/β from fabric benchmarks before projecting")
		measured    = flag.Bool("measured", false, "run the REAL toy-scale runtime (internal/dist) at -gpus PEs and print measured vs projected strategy overhead")
		train       = flag.String("train", "", "execute a plan (e.g. data:4, ds:2x2, dp:2x3) for REAL and print the value-parity table vs sequential SGD; -model picks the toy zoo model (default tinycnn-nobn; tinyresnet runs the residual DAG)")
		overlap     = flag.String("overlap", "on", "with -train: backward/communication overlap, on|off (losses are bit-identical either way; off runs the blocking A/B baseline)")
		adviseTrain = flag.Bool("advise-and-train", false, "ask the advisor for the best strategy at -gpus PEs (toy scale, default 4), then execute the top trainable plan for REAL and print the parity table")
		server      = flag.String("server", "", "with -advise-and-train: query a running paraserve URL (e.g. http://localhost:8080) instead of the in-process advisor")
		ckptEvery   = flag.Int("ckpt-every", 0, "with -train: checkpoint the canonical training state every N iterations (elastic runtime)")
		ckptDir     = flag.String("ckpt-dir", "", "with -train: persist checkpoints into this directory; also the source for -resume")
		resume      = flag.Bool("resume", false, "with -train: resume from the latest checkpoint in -ckpt-dir instead of starting fresh (the -train plan may differ from the checkpoint's — live migration)")
		kill        = flag.String("kill", "", "with -train: inject a PE failure as pe@iter (e.g. 3@2) and let the elastic supervisor recover")
		traceOut    = flag.String("trace", "", "with -train: write the executed plan's per-PE phase timeline as Chrome trace_event JSON to this file (open in ui.perfetto.dev)")
		cpuprofile  = flag.String("cpuprofile", "", "with -train: write a CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "with -train: write a heap profile at exit to this file")
	)
	flag.Parse()

	if *measured || *train != "" || *adviseTrain {
		// -measured runs a FIXED toy workload (tinycnn-nobn, global
		// batch 8) and -train/-advise-and-train a fixed toy batch
		// schedule; silently dropping projection flags would let a user
		// believe they measured the model they named. -train and
		// -advise-and-train DO honour -model (a zoo lookup: tinyresnet
		// exercises the DAG executor).
		mode, keep := "-measured", " (only -gpus selects the width)"
		switch {
		case *train != "":
			mode, keep = "-train", " (the plan selects strategy and widths; -model picks the toy zoo model)"
		case *adviseTrain:
			mode, keep = "-advise-and-train", " (the advisor selects the plan; -model picks the toy zoo model, -gpus the budget)"
		}
		var conflict []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "strategy", "batch", "batch-global", "p1", "p2", "segments", "phi", "advise", "findings", "calibrate":
				conflict = append(conflict, "-"+f.Name)
			case "model":
				if *measured {
					conflict = append(conflict, "-"+f.Name)
				}
			case "gpus":
				if *train != "" {
					conflict = append(conflict, "-"+f.Name)
				}
			case "measured", "train":
				if *adviseTrain {
					conflict = append(conflict, "-"+f.Name)
				} else if f.Name == "measured" && *train != "" {
					conflict = append(conflict, "-"+f.Name)
				}
			}
		})
		if len(conflict) > 0 {
			fmt.Fprintf(os.Stderr, "paradl: %s runs the fixed toy workload and is incompatible with %s%s\n",
				mode, strings.Join(conflict, ", "), keep)
			os.Exit(1)
		}
	}
	overlapSet, modelSet, gpusSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		overlapSet = overlapSet || f.Name == "overlap"
		modelSet = modelSet || f.Name == "model"
		gpusSet = gpusSet || f.Name == "gpus"
	})
	if overlapSet && *train == "" && !*adviseTrain {
		fmt.Fprintln(os.Stderr, "paradl: -overlap selects the real runtime's exchange mode and requires -train or -advise-and-train")
		os.Exit(1)
	}
	if *server != "" && !*adviseTrain {
		fmt.Fprintln(os.Stderr, "paradl: -server points -advise-and-train at a paraserve instance and requires it")
		os.Exit(1)
	}
	el := elasticConfig{Every: *ckptEvery, Dir: *ckptDir, Kill: *kill, Resume: *resume}
	if el.active() && *train == "" {
		fmt.Fprintln(os.Stderr, "paradl: -ckpt-every/-ckpt-dir/-resume/-kill drive the elastic runtime and require -train")
		os.Exit(1)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "paradl: -resume restores from -ckpt-dir, which is required")
		os.Exit(1)
	}
	if *resume && *kill != "" {
		fmt.Fprintln(os.Stderr, "paradl: -resume and -kill are mutually exclusive (resume continues a run; kill injects a failure into a fresh one)")
		os.Exit(1)
	}
	if (*traceOut != "" || *cpuprofile != "" || *memprofile != "") && *train == "" {
		fmt.Fprintln(os.Stderr, "paradl: -trace/-cpuprofile/-memprofile instrument the real runtime and require -train")
		os.Exit(1)
	}
	trainModel := trainDefaultModel
	if modelSet {
		trainModel = *modelName
	}
	// The advisor budget defaults to a toy width, not the projection
	// default of 64 GPUs.
	trainGpus := 4
	if gpusSet {
		trainGpus = *gpus
	}

	if *train != "" && el.active() {
		if err := withProfiles(*cpuprofile, *memprofile, func() error {
			return runElasticTrain(os.Stdout, *train, *overlap, trainModel, el, *traceOut)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "paradl:", err)
			os.Exit(1)
		}
		return
	}

	if err := withProfiles(*cpuprofile, *memprofile, func() error {
		return run(*modelName, *strategy, *gpus, *batch, *batchGlobal, *p1, *p2,
			*segments, *phi, *advise, *findings, *calibrate, *measured, *train, *overlap, trainModel,
			*adviseTrain, *server, trainGpus, *traceOut)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "paradl:", err)
		os.Exit(1)
	}
}

// withProfiles brackets fn with the -cpuprofile/-memprofile collectors;
// empty paths are pass-through. The heap profile is written after fn
// returns (post-GC), profiling the run's retained state.
func withProfiles(cpu, mem string, fn func() error) error {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	err := fn()
	if mem != "" {
		f, ferr := os.Create(mem)
		if ferr != nil {
			if err == nil {
				err = ferr
			}
			return err
		}
		defer f.Close()
		runtime.GC()
		if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// writeTrace dumps rec as Chrome trace_event JSON to path. Call only
// after the traced run has returned (the writers have quiesced).
func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(modelName, strategyName string, gpus, batch, batchGlobal, p1, p2, segments int,
	phi float64, advise, findings, calibrate, measured bool, train, overlap, trainModel string,
	adviseTrain bool, server string, trainGpus int, traceOut string) error {
	if adviseTrain {
		return runAdviseTrain(os.Stdout, server, trainModel, overlap, trainGpus)
	}
	if train != "" {
		return runTrain(os.Stdout, train, overlap, trainModel, traceOut)
	}
	if measured {
		// The real runtime executes on this host, so widths stay toy
		// scale; RuntimeOverhead validates the bound.
		e := report.NewEnv()
		if err := e.WriteRuntimeOverhead(os.Stdout, gpus); err != nil {
			return err
		}
		fmt.Println()
		return e.WritePhaseBreakdown(os.Stdout)
	}
	m, err := model.ByName(modelName)
	if err != nil {
		return err
	}
	sys := cluster.Default()
	if calibrate {
		sys, err = profile.CalibrateSystem(sys)
		if err != nil {
			return err
		}
		fmt.Println("α/β re-derived from fabric benchmarks:")
		for _, lvl := range []cluster.LinkLevel{cluster.IntraNode, cluster.IntraRack, cluster.InterRack} {
			ab := sys.NCCL[lvl]
			fmt.Printf("  %-11v α=%.1fµs β⁻¹=%.1f GB/s\n", lvl, ab.Alpha*1e6, 1e-9/ab.Beta)
		}
	}
	ds, err := data.ForModel(modelName)
	if err != nil {
		return err
	}
	b := batch * gpus
	if batchGlobal > 0 {
		b = batchGlobal
	}
	cfg := core.NewConfig(m, sys, ds.Samples, b, gpus, 0, nil)
	cfg.P1, cfg.P2 = p1, p2
	cfg.Segments, cfg.Phi = segments, phi

	if advise {
		return printAdvice(cfg)
	}
	s, err := core.ParseStrategy(strategyName)
	if err != nil {
		return err
	}
	pr, err := core.Project(cfg, s)
	if err != nil {
		return err
	}
	printProjection(pr)
	if findings {
		printFindings(pr)
	}
	return nil
}

func printProjection(pr *core.Projection) {
	cfg := pr.Config
	fmt.Printf("ParaDL projection — %s, %v, %d GPUs, global batch %d (D=%d)\n",
		cfg.Model.Name, pr.Strategy, cfg.P, cfg.B, cfg.D)
	iter := pr.Iter()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "phase\tper iteration\tper epoch\n")
	row := func(name string, it, ep float64) {
		if ep == 0 {
			return
		}
		fmt.Fprintf(tw, "%s\t%.2f ms\t%.1f s\n", name, it*1e3, ep)
	}
	row("FW compute", iter.FW, pr.Epoch.FW)
	row("BW compute", iter.BW, pr.Epoch.BW)
	row("WU compute", iter.WU, pr.Epoch.WU)
	row("GE allreduce", iter.GE, pr.Epoch.GE)
	row("FB collectives", iter.FBComm, pr.Epoch.FBComm)
	row("halo exchange", iter.Halo, pr.Epoch.Halo)
	row("pipeline P2P", iter.PipeP2P, pr.Epoch.PipeP2P)
	row("scatter/gather", iter.Scatter, pr.Epoch.Scatter)
	fmt.Fprintf(tw, "TOTAL\t%.2f ms\t%.1f s\n", iter.Total()*1e3, pr.Epoch.Total())
	tw.Flush()
	fmt.Printf("memory/PE: %.2f GB (device %.0f GB)   scaling limit: %d PEs   feasible: %v\n",
		pr.MemoryPerPE/1e9, cfg.Sys.GPU.MemBytes/1e9, pr.MaxPE, pr.Feasible)
	for _, n := range pr.Notes {
		fmt.Println("  note:", n)
	}
}

func printAdvice(cfg core.Config) error {
	advs, err := core.Advise(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("strategy ranking — %s on %d GPUs, global batch %d\n", cfg.Model.Name, cfg.P, cfg.B)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tstrategy\titer total\tcomp\tcomm\tmem/PE\tfeasible")
	for _, a := range advs {
		pr := a.Projection
		it := pr.Iter()
		fmt.Fprintf(tw, "%d\t%v\t%.2f ms\t%.2f ms\t%.2f ms\t%.1f GB\t%v\n",
			a.Rank, pr.Strategy, it.Total()*1e3, it.Comp()*1e3, it.Comm()*1e3,
			pr.MemoryPerPE/1e9, pr.Feasible)
	}
	return tw.Flush()
}

func printFindings(pr *core.Projection) {
	fs := core.DetectFindings(pr)
	if len(fs) == 0 {
		fmt.Println("no limitations or bottlenecks detected at this configuration")
		return
	}
	for _, f := range fs {
		fmt.Printf("  [%s] %s — %s: %s\n", f.Kind, f.Category, f.Remark, f.Detail)
	}
}

// The fixed -train workload schedule: toy scale so the run finishes in
// milliseconds on one host. The model comes from the zoo (-model; the
// default admits every strategy, tinyresnet exercises the DAG
// executor), bounded to toy parameter counts so the CLI cannot be
// pointed at an hours-long ImageNet-scale run by accident.
const (
	trainDefaultModel = "tinycnn-nobn"
	trainBatch        = 8
	trainIters        = 4
	trainSeed         = 42
	trainLR           = 0.05
	trainTol          = 1e-6
	trainMaxParams    = 1 << 20
)

// runTrain executes planStr for real (internal/dist) on a toy zoo
// model and prints the per-iteration value-parity table vs sequential
// SGD — the §4.5.2 methodology as a CLI one-liner. A parity violation
// is an error: the command doubles as a runtime smoke test. overlap
// ("on" or "off") selects the gradient-exchange mode, so the
// backward/comm overlap A/B is runnable from the CLI; both modes must
// print the same losses bit for bit.
func runTrain(w io.Writer, planStr, overlap, modelName, traceOut string) error {
	if overlap != "on" && overlap != "off" {
		return fmt.Errorf("-overlap must be on or off, got %q", overlap)
	}
	pl, err := dist.ParsePlan(planStr)
	if err != nil {
		return err
	}
	m, err := model.ByName(modelName)
	if err != nil {
		return err
	}
	if p := m.Params(); p > trainMaxParams {
		return fmt.Errorf("-train is toy-scale: model %q has %d parameters (> %d); pick a tiny zoo model (tinyresnet|tinycnn|tinycnn-nobn|tiny3d)",
			modelName, p, trainMaxParams)
	}
	return runPlanParity(w, pl, overlap, m, traceOut)
}

// toyBatches builds the fixed toy batch schedule for m.
func toyBatches(m *nn.Model) []dist.Batch {
	return data.Toy(m, int64(trainIters*trainBatch)).Batches(trainIters, trainBatch)
}

// trainOptions pins the toy training hyperparameters. The A/B bucket
// size makes -overlap a real toggle at toy scale: at the 256 KiB
// default the toy gradients fit one drain-time bucket and both modes
// would execute identically.
func trainOptions(overlap string) []dist.Option {
	return []dist.Option{dist.WithSeed(trainSeed), dist.WithLR(trainLR),
		dist.WithOverlap(overlap == "on"), dist.WithBucketBytes(dist.BenchOverlapBucketBytes)}
}

// runPlanParity executes pl for real on m and prints the per-iteration
// value-parity table vs sequential SGD — shared by -train (explicit
// plan) and -advise-and-train (advisor-chosen plan).
func runPlanParity(w io.Writer, pl dist.Plan, overlap string, m *nn.Model, traceOut string) error {
	batches := toyBatches(m)
	opts := trainOptions(overlap)
	// The trace observes the NAMED plan's run only; the sequential
	// baseline stays untraced (except for -train serial, where the
	// baseline IS the run).
	var rec *trace.Recorder
	tracedOpts := opts
	if traceOut != "" {
		rec = trace.NewRecorder()
		tracedOpts = append(append([]dist.Option(nil), opts...), dist.WithTrace(rec))
	}
	seqOpts := opts
	if pl.Strategy == core.Serial {
		seqOpts = tracedOpts
	}
	seq, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, seqOpts...)
	if err != nil {
		return err
	}
	res := seq // -train serial: the baseline IS the run
	if pl.Strategy != core.Serial {
		if res, err = dist.Run(m, batches, pl, tracedOpts...); err != nil {
			return err
		}
	}
	if rec != nil {
		if err := writeTrace(traceOut, rec); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "real training parity — %s, plan %s (%d PEs), global batch %d, %d iterations, overlap=%s\n",
		m.Name, pl, pl.P(), trainBatch, trainIters, overlap)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "iter\tsequential\t%s\tΔ\n", pl)
	worst := 0.0
	for i := range batches {
		d := res.Losses[i] - seq.Losses[i]
		if a := math.Abs(d); a > worst || math.IsNaN(a) {
			worst = a
		}
		fmt.Fprintf(tw, "%d\t%.6f\t%.6f\t%.1e\n", i, seq.Losses[i], res.Losses[i], d)
	}
	tw.Flush()
	if worst > trainTol || math.IsNaN(worst) {
		return fmt.Errorf("plan %s diverged from sequential SGD: max |Δ| = %.3e > %g", pl, worst, trainTol)
	}
	fmt.Fprintf(w, "plan %s reproduces sequential SGD value-by-value (max |Δ| = %.1e ≤ %g, §4.5.2)\n",
		pl, worst, trainTol)
	return nil
}
