package report

import (
	"fmt"
	"io"

	"paradl/internal/core"
	"paradl/internal/data"
)

// Table3Row is the analytical model of Table 3 evaluated for one
// strategy at a reference configuration.
type Table3Row struct {
	Strategy core.Strategy
	CompSec  float64 // per epoch
	CommSec  float64
	MemGB    float64
	MaxPE    int
	Feasible bool
}

// Table3 evaluates the computation/communication/memory columns of
// Table 3 for a reference configuration (default: ResNet-50, 64 GPUs,
// b=32).
func (e *Env) Table3(name string, p, perPE int) ([]Table3Row, error) {
	var rows []Table3Row
	for _, s := range append([]core.Strategy{core.Serial}, core.Strategies()...) {
		cfg := e.Config(name, p, perPE*p, perPE)
		switch s {
		case core.Serial:
			cfg.P = 1
			cfg.B = perPE
		case core.Filter, core.Channel, core.Pipeline:
			// strong scaling, up to the scaling limit (pipeline: 4 stages)
			cfg.B = 32
			if s == core.Pipeline {
				cfg.P = min(cfg.P, 4)
			} else if lim := limit(cfg, s); lim != nil {
				cfg.P = lim.Max
			}
		}
		pr, err := core.Project(cfg, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Strategy: s,
			CompSec:  pr.Epoch.Comp(),
			CommSec:  pr.Epoch.Comm(),
			MemGB:    pr.MemoryPerPE / 1e9,
			MaxPE:    pr.MaxPE,
			Feasible: pr.Feasible,
		})
	}
	return rows, nil
}

// WriteTable3 renders the evaluated analytic model.
func (e *Env) WriteTable3(w io.Writer, name string, p, perPE int) error {
	rows, err := e.Table3(name, p, perPE)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 3 — analytical model evaluated: %s (reference p=%d, b=%d/GPU)\n", name, p, perPE)
	tw := newTable(w)
	fmt.Fprintln(tw, "strategy\tT_comp/epoch(s)\tT_comm/epoch(s)\tmem/PE(GB)\tmax PEs\tfeasible")
	for _, r := range rows {
		fmt.Fprintf(tw, "%v\t%.1f\t%.1f\t%.2f\t%d\t%v\n",
			r.Strategy, r.CompSec, r.CommSec, r.MemGB, r.MaxPE, r.Feasible)
	}
	return tw.Flush()
}

// Table5Row summarizes one model/dataset pair (Table 5).
type Table5Row struct {
	Model     string
	Dataset   string
	Samples   int64
	SampleDim string
	Params    int64
	Layers    int
}

// Table5 reproduces the models-and-datasets summary.
func (e *Env) Table5() []Table5Row {
	var rows []Table5Row
	for _, name := range []string{"resnet50", "resnet152", "vgg16", "cosmoflow"} {
		m := e.Model(name)
		ds, err := data.ForModel(name)
		if err != nil {
			panic(err)
		}
		dim := fmt.Sprintf("%d×%v", m.InputChannels, m.InputDims)
		rows = append(rows, Table5Row{
			Model: name, Dataset: ds.Name, Samples: ds.Samples,
			SampleDim: dim, Params: m.Params(), Layers: m.G(),
		})
	}
	return rows
}

// WriteTable5 renders the summary.
func (e *Env) WriteTable5(w io.Writer) error {
	fmt.Fprintln(w, "Table 5 — models and datasets")
	tw := newTable(w)
	fmt.Fprintln(tw, "model\tdataset\t#samples\tsample\t#params\t#layers")
	for _, r := range e.Table5() {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.1fM\t%d\n",
			r.Model, r.Dataset, r.Samples, r.SampleDim, float64(r.Params)/1e6, r.Layers)
	}
	return tw.Flush()
}

// Table6Row aggregates detected findings across strategies.
type Table6Row struct {
	Strategy core.Strategy
	Findings []core.Finding
}

// Table6 runs the limitation/bottleneck detector over every strategy
// for a model at scale, reproducing the summary of Table 6.
func (e *Env) Table6(name string, p, perPE int) ([]Table6Row, error) {
	var rows []Table6Row
	for _, s := range core.Strategies() {
		cfg := e.Config(name, p, perPE*p, perPE)
		// The strong-scaling strategies run at B=32, at their scaling
		// limit when p exceeds it (pipeline: 4 stages).
		switch s {
		case core.Filter, core.Channel, core.Spatial:
			cfg.B = 32
			if lim := limit(cfg, s); lim != nil {
				cfg.P = lim.Max
			}
		case core.Pipeline:
			cfg.P, cfg.B = 4, 32
		}
		pr, err := core.Project(cfg, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table6Row{Strategy: s, Findings: core.DetectFindings(pr)})
	}
	return rows, nil
}

// WriteTable6 renders the detector output.
func (e *Env) WriteTable6(w io.Writer, name string, p, perPE int) error {
	rows, err := e.Table6(name, p, perPE)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 6 — detected limitations (L) and bottlenecks (B): %s at p=%d\n", name, p)
	tw := newTable(w)
	fmt.Fprintln(tw, "strategy\tL/B\tcategory\tremark\tdetail")
	for _, r := range rows {
		if len(r.Findings) == 0 {
			fmt.Fprintf(tw, "%v\t-\t-\tnone at this scale\t\n", r.Strategy)
			continue
		}
		for _, f := range r.Findings {
			fmt.Fprintf(tw, "%v\t%s\t%s\t%s\t%s\n", r.Strategy, f.Kind, f.Category, f.Remark, f.Detail)
		}
	}
	return tw.Flush()
}

// AccuracySummary aggregates the Fig. 3 and Fig. 4 grids into the
// paper's §5.2 per-strategy and overall accuracy numbers.
type AccuracySummary struct {
	PerStrategy map[core.Strategy]float64
	PerModel    map[string]float64
	Overall     float64
	Cells       int
}

// Accuracy computes the summary.
func (e *Env) Accuracy() (*AccuracySummary, error) {
	cells, err := e.Fig3()
	if err != nil {
		return nil, err
	}
	cf, err := e.Fig4()
	if err != nil {
		return nil, err
	}
	cells = append(cells, cf...)

	sum := &AccuracySummary{
		PerStrategy: map[core.Strategy]float64{},
		PerModel:    map[string]float64{},
	}
	sCount := map[core.Strategy]int{}
	mCount := map[string]int{}
	total := 0.0
	for _, c := range cells {
		sum.PerStrategy[c.Strategy] += c.Accuracy
		sCount[c.Strategy]++
		sum.PerModel[c.Model] += c.Accuracy
		mCount[c.Model]++
		total += c.Accuracy
	}
	for s, v := range sum.PerStrategy {
		sum.PerStrategy[s] = v / float64(sCount[s])
	}
	for m, v := range sum.PerModel {
		sum.PerModel[m] = v / float64(mCount[m])
	}
	sum.Overall = total / float64(len(cells))
	sum.Cells = len(cells)
	return sum, nil
}

// WriteAccuracy renders the summary.
func (e *Env) WriteAccuracy(w io.Writer) error {
	sum, err := e.Accuracy()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "§5.2 accuracy summary over %d grid cells (paper: 86.74%% overall, 96.10%% data)\n", sum.Cells)
	tw := newTable(w)
	fmt.Fprintln(tw, "strategy\tmean accuracy")
	for _, s := range core.Strategies() {
		if v, ok := sum.PerStrategy[s]; ok {
			fmt.Fprintf(tw, "%v\t%s\n", s, pct(v))
		}
	}
	fmt.Fprintf(tw, "OVERALL\t%s\n", pct(sum.Overall))
	return tw.Flush()
}
