// Command paraexp regenerates the paper's evaluation artefacts — every
// table and figure of §5, as indexed by the registry below and the
// README's "Measured vs projected" section — plus the repo's committed
// measurement artefacts:
//
//	paraexp -exp all
//	paraexp -exp fig3
//	paraexp -exp accuracy
//	paraexp -exp scoreboard -scenarios 60 > SCOREBOARD.json
//	paraexp -exp chaos -scenarios 25 -seed 1 > CHAOS.json
//	paraexp -exp phases > PHASES.json
//
// Run with -h (or any unknown -exp value) for the full experiment
// registry with one-line descriptions. Performance is not measured
// here: the repo benchmark is bench/ (see BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"paradl/internal/report"
)

// options bundles every experiment's flag settings so runners share one
// signature.
type options struct {
	trials    int     // fig6: collective trials
	congested float64 // fig6: congested fraction
	seed      int64   // fig6: congestion RNG seed
	csv       bool    // machine-readable variants where available

	scenarios    int    // trace/scoreboard: sweep size
	workloadSeed int64  // trace/scoreboard: generator seed
	replayIters  int    // scoreboard: timed runs per candidate
	traceFile    string // scoreboard: replay this trace instead of generating
}

// experiment is one registered -exp value: its name, the one-line
// description the usage text and unknown-experiment error enumerate,
// and its runner. artefact experiments are the deterministic paper
// regenerations "-exp all" runs in paper order; the rest measure real
// runtimes (or sweep them) and run only when named, so artefact
// regeneration stays deterministic and fast.
type experiment struct {
	name     string
	desc     string
	artefact bool
	run      func(w io.Writer, e *report.Env, o options) error
}

// registry returns every registered experiment in display order. In CSV
// mode the artefact set narrows to the experiments with machine-readable
// variants, mirroring what "-exp all -csv" emits.
func registry(csv bool) []experiment {
	artefacts := []experiment{
		{"table5", "Table 5 — models and datasets summary", true,
			func(w io.Writer, e *report.Env, o options) error { return e.WriteTable5(w) }},
		{"table3", "Table 3 — analytical model evaluated (ResNet-50, 64 GPUs)", true,
			func(w io.Writer, e *report.Env, o options) error { return e.WriteTable3(w, "resnet50", 64, 32) }},
		{"fig3", "Figure 3 — per-iteration breakdown: projection vs measured", true,
			func(w io.Writer, e *report.Env, o options) error { return e.WriteFig3(w) }},
		{"fig4", "Figure 4 — prediction accuracy, CosmoFlow Data+Spatial", true,
			func(w io.Writer, e *report.Env, o options) error { return e.WriteFig4(w) }},
		{"fig5", "Figure 5 — scaling comparison across strategies", true,
			func(w io.Writer, e *report.Env, o options) error { return e.WriteFig5(w) }},
		{"fig6", "Figure 6 — congestion: collective time vs α–β expectation", true,
			func(w io.Writer, e *report.Env, o options) error {
				return e.WriteFig6(w, o.trials, o.congested, o.seed)
			}},
		{"fig7", "Figure 7 — computation split per iteration", true,
			func(w io.Writer, e *report.Env, o options) error { return e.WriteFig7(w) }},
		{"fig8", "Figure 8 — filter-parallel compute breakdown, ResNet-50", true,
			func(w io.Writer, e *report.Env, o options) error { return e.WriteFig8(w) }},
		{"table6", "Table 6 — detected limitations and bottlenecks (VGG16)", true,
			func(w io.Writer, e *report.Env, o options) error { return e.WriteTable6(w, "vgg16", 64, 32) }},
		{"accuracy", "per-strategy prediction accuracy summary", true,
			func(w io.Writer, e *report.Env, o options) error { return e.WriteAccuracy(w) }},
	}
	if csv {
		artefacts = []experiment{
			{"fig3", "Figure 3 grid, one CSV row per cell", true,
				func(w io.Writer, e *report.Env, o options) error { return e.WriteFig3CSV(w) }},
			{"fig4", "Figure 4 CosmoFlow accuracy series as CSV", true,
				func(w io.Writer, e *report.Env, o options) error { return e.WriteFig4CSV(w) }},
			{"fig6", "Figure 6 congestion scatter as CSV", true,
				func(w io.Writer, e *report.Env, o options) error {
					return e.WriteFig6CSV(w, o.trials, o.congested, o.seed)
				}},
			{"accuracy", "accuracy summary as CSV", true,
				func(w io.Writer, e *report.Env, o options) error { return e.WriteAccuracyCSV(w) }},
		}
	}
	measured := []experiment{
		{"trace", "seeded workload sweep as a reproducible JSON-lines trace", false,
			func(w io.Writer, e *report.Env, o options) error { return writeTraceExp(w, o) }},
		{"scoreboard", "replay a seeded sweep; oracle ranking-fidelity scores (SCOREBOARD.json)", false,
			func(w io.Writer, e *report.Env, o options) error { return writeScoreboard(w, o) }},
		{"chaos", "randomized fault-schedule soak; recovery + parity verdicts (CHAOS.json)", false,
			func(w io.Writer, e *report.Env, o options) error { return writeChaos(w, o) }},
		{"phases", "traced per-phase measured-vs-projected table (PHASES.json)", false,
			func(w io.Writer, e *report.Env, o options) error { return writePhases(w, e) }},
	}
	return append(artefacts, measured...)
}

// describeExperiments renders the registry as the usage/error listing:
// one aligned "name  description" line per experiment, with "all"
// first.
func describeExperiments(csv bool) string {
	var b strings.Builder
	rows := append([]experiment{{name: "all", desc: "every paper artefact below, in order"}}, registry(csv)...)
	width := 0
	for _, x := range rows {
		if len(x.name) > width {
			width = len(x.name)
		}
	}
	for _, x := range rows {
		fmt.Fprintf(&b, "  %-*s  %s\n", width, x.name, x.desc)
	}
	return b.String()
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see the registry below)")
	o := options{}
	flag.IntVar(&o.trials, "trials", 12, "fig6: number of collective trials")
	flag.Float64Var(&o.congested, "congested", 0.35, "fig6: fraction of congested trials")
	flag.Int64Var(&o.seed, "seed", 7, "fig6: congestion RNG seed; chaos: base seed the per-scenario schedules derive from")
	flag.BoolVar(&o.csv, "csv", false, "emit machine-readable CSV (fig3, fig4, fig6, accuracy)")
	flag.IntVar(&o.scenarios, "scenarios", 60, "trace/scoreboard: scenarios sampled from the sweep lattice; chaos: fault schedules soaked")
	flag.Int64Var(&o.workloadSeed, "workload-seed", 1, "trace/scoreboard: generator seed (recorded in the trace header)")
	flag.IntVar(&o.replayIters, "replay-iters", 1, "scoreboard: timed real-runtime runs per candidate")
	flag.StringVar(&o.traceFile, "trace", "", "scoreboard: replay this JSON-lines trace file instead of generating")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: paraexp -exp <experiment> [flags]\n\nexperiments:\n%s\nflags:\n", describeExperiments(false))
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := run(os.Stdout, *exp, o); err != nil {
		fmt.Fprintln(os.Stderr, "paraexp:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, o options) error {
	e := report.NewEnv()
	ran := false
	for _, x := range registry(o.csv) {
		switch {
		case exp == x.name:
		case exp == "all" && x.artefact:
		default:
			continue
		}
		ran = true
		if err := x.run(w, e, o); err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		if x.artefact {
			fmt.Fprintln(w)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q; registered experiments:\n%s", exp, describeExperiments(o.csv))
	}
	return nil
}
