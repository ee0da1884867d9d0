package report

import (
	"fmt"
	"io"

	"paradl/internal/core"
	"paradl/internal/strategy"
)

// fig3Point is one x-axis position of one Fig. 3 panel.
type fig3Point struct {
	strategy core.Strategy
	p        int
	// b is samples/GPU for weak-scaling strategies; for filter/channel
	// (strong scaling, Fig. 3 caption) and pipeline it is the GLOBAL
	// batch.
	b      int
	global bool
	p1, p2 int // hybrid split (0 = default node mapping)
}

// fig3Grid mirrors the paper's panels: data and hybrids weak-scale from
// 16 to 1024 GPUs, filter/channel strong-scale from 4 to 64, pipeline
// runs up to 4 stages (§5.1 "Configurations of Experiments"), and
// spatial runs at small PE counts with the batch shared by all PEs.
func fig3Grid() []fig3Point {
	var pts []fig3Point
	for _, p := range []int{16, 64, 256, 1024} {
		pts = append(pts, fig3Point{strategy: core.Data, p: p, b: 32})
	}
	for _, p := range []int{4, 16, 64} {
		pts = append(pts, fig3Point{strategy: core.Spatial, p: p, b: 8, global: true})
	}
	for _, p := range []int{4, 16, 64} {
		pts = append(pts, fig3Point{strategy: core.Filter, p: p, b: 32, global: true})
		pts = append(pts, fig3Point{strategy: core.Channel, p: p, b: 32, global: true})
	}
	for _, p := range []int{16, 64, 256, 1024} {
		pts = append(pts, fig3Point{strategy: core.DataFilter, p: p, b: 8})
		pts = append(pts, fig3Point{strategy: core.DataSpatial, p: p, b: 8})
	}
	for _, p := range []int{2, 4} {
		pts = append(pts, fig3Point{strategy: core.Pipeline, p: p, b: 32, global: true})
	}
	// dp (no Table 3 entry; §3.6 composition): weak-scaling grids with
	// a shallow in-group pipeline, the shape the runtime executes.
	for _, p := range []int{16, 64} {
		pts = append(pts, fig3Point{strategy: core.DataPipeline, p: p, b: 8, p1: p / 4, p2: 4})
	}
	return pts
}

// Fig3Models lists the panels' rows.
func Fig3Models() []string { return []string{"resnet50", "resnet152", "vgg16"} }

// Fig3 evaluates the full oracle-vs-measured grid of Fig. 3 (time
// breakdown per model × strategy × scale with accuracy labels). The
// grid is deterministic, so it is computed once per Env and cached.
func (e *Env) Fig3() ([]Cell, error) {
	if e.fig3Cache != nil {
		return e.fig3Cache, nil
	}
	var cells []Cell
	for _, name := range Fig3Models() {
		for _, pt := range fig3Grid() {
			b := pt.b
			perPE := pt.b
			if !pt.global {
				b = pt.b * pt.p
			} else if pt.strategy == core.Spatial || pt.strategy == core.Pipeline {
				perPE = max(1, pt.b/pt.p)
			}
			cfg := e.Config(name, pt.p, b, perPE)
			cfg.P1, cfg.P2 = pt.p1, pt.p2
			// Skip points beyond the model's Table-3 limits (the paper
			// plots each strategy only up to its scaling limit).
			if limit(cfg, pt.strategy) != nil {
				continue
			}
			cell, err := e.evalCell(name, pt.strategy, cfg)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
	}
	e.fig3Cache = cells
	return cells, nil
}

// WriteFig3 renders the grid in the paper's panel layout.
func (e *Env) WriteFig3(w io.Writer) error {
	cells, err := e.Fig3()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3 — per-iteration time breakdown: ParaDL projection vs measured (ms)")
	fmt.Fprintln(w, "(data/df/ds weak-scale b·p; filter/channel strong-scale at fixed B; pipeline S=4)")
	tw := newTable(w)
	fmt.Fprintln(tw, "model\tstrategy\tGPUs\tB\toracle comp\toracle comm\tmeasured comp\tmeasured comm\taccuracy")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%v\t%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
			c.Model, c.Strategy, c.P, c.B,
			ms(c.Oracle.Comp()), ms(c.Oracle.Comm()),
			ms(c.Measured.Comp()), ms(c.Measured.Comm()),
			pct(c.Accuracy))
	}
	return tw.Flush()
}

// limit returns the Table-3 scaling limit cfg violates under s, if any.
func limit(cfg core.Config, s core.Strategy) *strategy.Limit {
	if core.Validate(&cfg, s) != nil {
		return nil // evaluating the cell reports it
	}
	g := core.Grid(cfg, s)
	return g.Limits()
}
