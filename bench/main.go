// Command bench is the repo's benchmark: four workloads, nine
// end-to-end metrics and 119 per-layer metrics, all measured from
// outside the program through its public functions. The driver runs
//
//	go run -C bench paradl/bench --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how often a run builds its models, inputs and planner:
// setup_s takes the median, so one slow set-up does not decide it.
const setupReps = 3

// A run is cut into this many cycles (see runWorkload).
const (
	untracedCycles = 8
	tracedCycles   = 4
	minCycles      = 3
)

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOpts selects one run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // traced runs write spans, checkpoints and the built CLI here
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed of every generated input (tensors, labels, request parameters, Zipf draws)")
		seconds  = flag.Float64("seconds", runSeconds, "how long the run measures")
		traceOn  = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced run, prints the end-to-end metrics")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json from the metric catalogue and exit")
		suite    = flag.Int("suite", 0, "run every workload N times untraced (seeds seed…seed+N-1) and once traced, each in its own process; write the set to -out")
		out      = flag.String("out", "", "with -suite: file the set of runs is written to")
		compare  = flag.Bool("compare", false, "compare two -suite files given as arguments: exit 1 on a regression or a higher failure rate")
	)
	flag.Parse()
	switch {
	case *manifest:
		b, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: bench -compare a.json b.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *suite > 0:
		if err := runSuite(*suite, *seed, *seconds, *out); err != nil {
			fatal(err)
		}
	default:
		if !isWorkload(*workload) {
			fatal(fmt.Errorf("-workload must be one of %s", workloadNames()))
		}
		if *seconds <= 0 {
			fatal(fmt.Errorf("-seconds must be positive"))
		}
		res, err := runWorkload(runOpts{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn != 0, outDir: "out",
		})
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runWorkload is one run: set up, run the cycles of training rounds
// and planner slices, and, when traced, climb the ladder. It prints
// the header and every metric by name with its unit; the caller prints
// the result line.
func runWorkload(o runOpts) (*result, error) {
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	total := time.Duration(o.seconds * float64(time.Second))
	spec, isTrain := trainSpecs[o.workload]
	if !isTrain {
		spec = crossTrainSpec
	}
	var rec *spanRecorder
	if o.trace {
		rec = newSpanRecorder(o.workload)
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
	}

	// Set-up: build the models, generate every input from the seed,
	// start the planners and prime the hot set — several times, the
	// median counts and the last one is used — then warm up once.
	cores := newSettler(procs)
	var (
		train  *trainSection
		srv    *serveSection
		digest string
		setupS []float64
	)
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		dg := newDigester()
		train = newTrainSection(spec, rand.New(rand.NewSource(o.seed)), dg, rec, cores)
		var err error
		if srv, err = newServeSection(o.seed, dg, rec, cores); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		digest = dg.sum()
	}
	defer srv.close()
	cores.settle()
	t0 := time.Now()
	train.warmUp()
	srv.warmChurn()
	setup := median(setupS) + time.Since(t0).Seconds()
	fmt.Printf("# paradl bench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d nproc=%d go=%s input_digest=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), procs, runtime.Version(), digest)

	// The run is cut into cycles, each a stretch of training rounds and
	// then one slice of every planner phase, so that each metric samples
	// the whole run: a machine that slows down for a few seconds costs
	// every metric a cycle instead of one metric its whole section. The
	// workload's own side gets 80% of every cycle, the other domain's
	// cross-check 20%; a traced run keeps 40% of the time for the ladder
	// and leaves its first cycle untraced, the base of the tracing
	// overhead.
	cycles, own, cross := untracedCycles, total*80/100, total*20/100
	if o.trace {
		cycles, own, cross = tracedCycles, total*50/100, total*10/100
	}
	trainBudget, serveBudget := own, cross
	if !isTrain {
		trainBudget, serveBudget = cross, own
	}
	for c, start := 0, time.Now(); c < cycles; c++ {
		// A training stretch runs at least one whole round, so cycles
		// can overrun; stop early when another would not fit.
		if spent := time.Since(start); c >= minCycles && spent+spent/time.Duration(c) > own+cross {
			break
		}
		traced := o.trace && c > 0
		train.runFor(trainBudget/time.Duration(cycles), traced)
		runtime.GC() // one side's garbage is not the other's cost
		srv.slice(serveBudget/time.Duration(cycles), traced)
		runtime.GC()
	}
	srv.finish()

	values := map[string]float64{"setup_s": setup}
	merge := func(m map[string]float64) {
		for k, v := range m {
			values[k] = v
		}
	}
	merge(train.endToEnd())
	merge(srv.endToEnd())
	defs := endToEnd
	extraAttempted, extraFailed := 0, 0
	if o.trace {
		defs = perLayer()
		ladderBudget := total * 40 / 100
		l := &ladder{
			rec: rec, rng: rand.New(rand.NewSource(o.seed + 1)), cores: cores, outDir: o.outDir,
			perRung: ladderBudget / 64, out: map[string]float64{},
		}
		runtime.GC()
		model0 := train.models[0]
		l.tensorRungs(model0, spec.batch)
		l.nnRungs(model0, spec.batch)
		l.collectiveRungs()
		if err := l.ckptRungs(); err != nil {
			return nil, err
		}
		if err := l.plannerRungs(); err != nil {
			return nil, err
		}
		bin, err := buildCLI(o.outDir)
		if err != nil {
			return nil, err
		}
		l.cmdRungs(bin)
		l.handlerRungs(o.seed)
		merge(l.out)
		merge(train.layerMetrics(l.out["nn.train_step_ms"]))
		merge(train.abMetrics(ladderBudget / 16))
		merge(srv.layerMetrics())
		if !isTrain {
			values["bench.traced_run_overhead_pct"] = srv.tracedOverheadPct()
		}
		extraAttempted, extraFailed = l.attempted, l.failed

		// The instruments are gated too: spans must tile the PE
		// timelines and nothing may fall out of the rings.
		if values["trace.dropped_events"] != 0 || values["trace.coverage_min"] < 0.95 {
			extraFailed++
			fmt.Printf("# FAILED trace gate: dropped=%g coverage_min=%g\n", values["trace.dropped_events"], values["trace.coverage_min"])
		}
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := rec.dump(path); err != nil {
			return nil, err
		}
		fmt.Printf("# spans written to %s\n", path)
	}

	train.printCells()
	srv.printPhases()
	// The A/B rungs above are checked training runs too, so the
	// sections' counts are read last.
	res := &result{Attempted: train.attempted + srv.attempted + extraAttempted, Metrics: map[string]metricValue{}}
	failed := train.failed + srv.failed + extraFailed
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			failed++
			fmt.Printf("# FAILED metric %s missing or not finite\n", d.Name)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-44s %-8s %s\n", d.Name, d.Unit, formatValue(v))
	}
	res.Failed = failed
	res.Correct = failed == 0
	fmt.Printf("# ops_attempted=%d ops_failed=%d\n", res.Attempted, res.Failed)
	return res, nil
}

func formatValue(v float64) string {
	if v != 0 && math.Abs(v) < 1e-3 {
		return fmt.Sprintf("%.4g", v)
	}
	return fmt.Sprintf("%.4f", v)
}

// printCells prints every (model, plan) cell's samples/s over the
// untraced rounds: sample count, median and quartiles.
func (s *trainSection) printCells() {
	for mi, m := range s.models {
		for pi, ps := range trainPlans {
			xs := s.tput[runKey{mi, pi}]
			q1, q3 := quartiles(xs)
			fmt.Printf("# samples_per_s model=%s plan=%s n=%d median=%.2f q1=%.2f q3=%.2f\n", m.Name, ps.suffix, len(xs), median(xs), q1, q3)
		}
	}
}

// printPhases prints each serving phase's slice count, request count,
// hit ratio, the median and quartiles of its per-slice rates, and the
// medians of its per-slice latency percentiles.
func (s *serveSection) printPhases() {
	for ph, name := range phaseNames {
		var rates []float64
		n := 0
		for _, r := range s.slices[ph] {
			rates = append(rates, r.perSecond)
			n += r.requests
		}
		q1, q3 := quartiles(rates)
		fmt.Printf("# phase=%s slices=%d requests=%d hit_ratio=%.4f req_per_s median=%.1f q1=%.1f q3=%.1f ms_p50=%.4f ms_p99=%.4f\n", name, len(rates), n,
			s.hitRatio(ph), median(rates), q1, q3, s.over(ph, false, p50, median), s.over(ph, false, p99, median))
	}
}
