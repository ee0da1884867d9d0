// Package report regenerates every table and figure of the paper's
// evaluation (§5): the oracle-vs-measured breakdowns of Fig. 3/4, the
// ds scaling study of Fig. 5, the congestion scatter of Fig. 6, the
// compute breakdowns of Fig. 7/8, and Tables 3, 5 and 6 — each as a
// structured result set plus a text rendering, indexed by cmd/paraexp's
// experiment registry and the README's "Measured vs projected" section.
//
// Those artefacts compare the oracle with the simulator, one
// measure.Compare per cell (evalCell). The two tables that also run the
// plan on the real runtime — the overhead table (runtime.go) and the
// per-phase table behind PHASES.json (phases.go) — own no run, projection
// or config of their own: each is a list of fixed workload.Scenario
// values plus a row-shaper over workload.Replayer.Replay, the repo's one
// measured-vs-projected join, and inherits its skip policy (only a
// *dist.InfeasibleError drops an overhead row; a PHASES cell may not be
// skipped at all).
package report

import (
	"fmt"
	"io"
	"text/tabwriter"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/measure"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/profile"
)

// Env bundles what every experiment needs: the machine, the device
// model, and the measurement engine.
type Env struct {
	Sys    *cluster.System
	Dev    *profile.Device
	Engine *measure.Engine

	models    map[string]*nn.Model
	profiles  core.ProfileMemo
	fig3Cache []Cell
}

// NewEnv builds the default experiment environment (the paper's
// machine).
func NewEnv() *Env {
	sys := cluster.Default()
	return &Env{
		Sys:    sys,
		Dev:    profile.NewDevice(sys.GPU),
		Engine: measure.NewEngine(sys),
		models: map[string]*nn.Model{},
	}
}

// Model returns (and caches) a zoo model.
func (e *Env) Model(name string) *nn.Model {
	if m, ok := e.models[name]; ok {
		return m
	}
	m, err := model.ByName(name)
	if err != nil {
		panic(err)
	}
	e.models[name] = m
	return m
}

// Config assembles a core.Config for a model. b is the GLOBAL batch;
// perPE sets the profiling batch granularity.
func (e *Env) Config(name string, p, b, perPE int) core.Config {
	ds, err := data.ForModel(name)
	if err != nil {
		panic(err)
	}
	return core.NewConfig(e.Model(name), e.Sys, ds.Samples, b, p, perPE, &e.profiles)
}

// Cell is one oracle-vs-measured grid point (one bar pair of Fig. 3).
type Cell struct {
	Model    string
	Strategy core.Strategy
	P        int
	B        int // global mini-batch
	Oracle   core.Breakdown
	Measured core.Breakdown
	Accuracy float64
}

// evalCell runs both sides for one configuration.
func (e *Env) evalCell(name string, s core.Strategy, cfg core.Config) (Cell, error) {
	pr, res, err := measure.Compare(e.Engine, cfg, s)
	if err != nil {
		return Cell{}, fmt.Errorf("report: %s/%v: %w", name, s, err)
	}
	return Cell{
		Model:    name,
		Strategy: s,
		P:        cfg.P,
		B:        cfg.B,
		Oracle:   pr.Iter(),
		Measured: res.Iter,
		Accuracy: res.Accuracy(pr),
	}, nil
}

// newTable starts an aligned text table on w.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// ms renders seconds as milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.1f", sec*1e3) }

// pct renders a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
