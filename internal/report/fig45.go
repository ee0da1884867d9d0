package report

import (
	"fmt"
	"io"

	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/measure"
	"paradl/internal/model"
)

// cosmoConfig builds a CosmoFlow ds configuration: one sample per node
// (0.25 samples/GPU, §5.1), spatial within the node, data across
// nodes. Uses the 128³ geometry for tractable in-process evaluation;
// §5.1's ×8 extrapolation note covers the 256³ full size.
func (e *Env) cosmoConfig(p int) core.Config {
	key := "cosmoflow128"
	if _, ok := e.models[key]; !ok {
		e.models[key] = model.CosmoFlowAt(128)
	}
	p2 := e.Sys.GPUsPerNode
	if p < p2 {
		p2 = p
	}
	p1 := p / p2
	// One sample per spatial group, profiled at that one sample.
	cfg := core.NewConfig(e.models[key], e.Sys, data.CosmoFlow().Samples, p1, p, 1, &e.profiles)
	cfg.P1, cfg.P2 = p1, p2
	return cfg
}

// Fig4 evaluates CosmoFlow under Data+Spatial across scales — the
// prediction-accuracy study of Fig. 4. (CosmoFlow runs ONLY with ds:
// the sample is too large for any other strategy, Fig. 4 caption.)
func (e *Env) Fig4() ([]Cell, error) {
	var cells []Cell
	for _, p := range []int{4, 16, 64, 256, 512} {
		cfg := e.cosmoConfig(p)
		cell, err := e.evalCell(cfg.Model.Name, core.DataSpatial, cfg)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// WriteFig4 renders the CosmoFlow accuracy series.
func (e *Env) WriteFig4(w io.Writer) error {
	cells, err := e.Fig4()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4 — ParaDL prediction accuracy, CosmoFlow Data+Spatial")
	tw := newTable(w)
	fmt.Fprintln(tw, "GPUs\tB\toracle total\tmeasured total\taccuracy")
	for _, c := range cells {
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%s\n",
			c.P, c.B, ms(c.Oracle.Total()), ms(c.Measured.Total()), pct(c.Accuracy))
	}
	return tw.Flush()
}

// Fig5Point is one x position of the ds-vs-spatial scaling study.
// Times are per EPOCH, as in the paper's log-scale plot: pure spatial
// processes one sample per iteration on its single node, so its epoch
// time is flat, while ds widens the data pool as nodes are added.
type Fig5Point struct {
	P int
	// DSEpoch is the Data+Spatial epoch time at p GPUs.
	DSEpoch float64
	// Speedup is SpatialBaselineEpoch / DSEpoch — Fig. 5's labels
	// ("speedup ratio of spatial+data over the pure spatial strategy").
	Speedup float64
}

// Fig5 reproduces the spatial+data scaling study.
func (e *Env) Fig5() (baselineEpoch float64, pts []Fig5Point, err error) {
	// Baseline: pure spatial on one node (1 sample over 4 GPUs — the
	// paper's 0.25 samples/GPU configuration).
	base := e.cosmoConfig(e.Sys.GPUsPerNode)
	baseRes, err := measure.Measure(e.Engine, base, core.DataSpatial)
	if err != nil {
		return 0, nil, err
	}
	d := float64(base.D)
	baselineEpoch = d * baseRes.Iter.Total() // one sample per iteration

	for _, p := range []int{4, 16, 64, 256, 512} {
		cfg := e.cosmoConfig(p)
		res, err := measure.Measure(e.Engine, cfg, core.DataSpatial)
		if err != nil {
			return 0, nil, err
		}
		epoch := d / float64(cfg.B) * res.Iter.Total()
		pts = append(pts, Fig5Point{P: p, DSEpoch: epoch, Speedup: baselineEpoch / epoch})
	}
	return baselineEpoch, pts, nil
}

// WriteFig5 renders the scaling comparison.
func (e *Env) WriteFig5(w io.Writer) error {
	base, pts, err := e.Fig5()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 5 — CosmoFlow: spatial+data scaling (epoch seconds; baseline pure spatial = %.1f s)\n", base)
	tw := newTable(w)
	fmt.Fprintln(tw, "GPUs\tds epoch(s)\tspeedup over pure spatial")
	for _, pt := range pts {
		fmt.Fprintf(tw, "%d\t%.1f\t%.2fx\n", pt.P, pt.DSEpoch, pt.Speedup)
	}
	return tw.Flush()
}
