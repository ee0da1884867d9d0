package report

import (
	"fmt"
	"io"

	"paradl/internal/core"
	"paradl/internal/measure"
)

// Fig7Row is one model's per-epoch compute split (Fig. 7: "Weight
// update is not trivial in large models").
type Fig7Row struct {
	Model   string
	B       int
	FW, BW  float64 // seconds per iteration
	WU      float64
	WUShare float64 // WU / (FW+BW+WU)
}

// Fig7 computes the FW/BW/WU split per iteration for every paper model
// at b=32 samples per GPU (CosmoFlow at its one-sample granularity).
func (e *Env) Fig7() []Fig7Row {
	var rows []Fig7Row
	for _, name := range []string{"resnet50", "resnet152", "vgg16", "cosmoflow"} {
		b := 32
		if name == "cosmoflow" {
			b = 1
		}
		lt := e.Config(name, 1, b, b).Times // one GPU, profiled at batch b
		fw := float64(b) * lt.SumFW()
		bw := float64(b) * lt.SumBW()
		wu := lt.SumWU()
		rows = append(rows, Fig7Row{
			Model: name, B: b,
			FW: fw, BW: bw, WU: wu,
			WUShare: wu / (fw + bw + wu),
		})
	}
	return rows
}

// WriteFig7 renders the split.
func (e *Env) WriteFig7(w io.Writer) error {
	fmt.Fprintln(w, "Figure 7 — computation split per iteration (ms); weight update share")
	tw := newTable(w)
	fmt.Fprintln(tw, "model\tb\tFW\tBW\tWU\tWU share")
	for _, r := range e.Fig7() {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n",
			r.Model, r.B, ms(r.FW), ms(r.BW), ms(r.WU), pct(r.WUShare))
	}
	return tw.Flush()
}

// Fig8Row is one GPU count of the filter-parallel compute breakdown
// (Fig. 8: "Implementation of convolution layers does not scale well").
type Fig8Row struct {
	P int
	// Ideal is compute/p — what the oracle assumes.
	Ideal float64
	// Conv is the measured kernel time of the shrunken convolutions.
	Conv float64
	// Overhead is the split/concat rearrangement cost.
	Overhead float64
	// Efficiency = Ideal / (Conv + Overhead).
	Efficiency float64
}

// Fig8 reproduces the filter-parallelism compute breakdown for
// ResNet-50 at fixed global batch 32 from 4 to 64 GPUs.
func (e *Env) Fig8() ([]Fig8Row, error) {
	name := "resnet50"
	m := e.Model(name)
	b := 32

	// Single-GPU reference compute.
	var ref float64
	for i := range m.Layers {
		l := &m.Layers[i]
		ref += e.Dev.LayerFW(l, b, 1) + e.Dev.LayerBW(l, b, 1)
	}

	var rows []Fig8Row
	for _, p := range []int{4, 16, 64} {
		cfg := e.Config(name, p, b, b)
		res, err := measure.Measure(e.Engine, cfg, core.Filter)
		if err != nil {
			return nil, err
		}
		// Recompute the pure kernel part (without split/concat) to
		// separate the two Fig. 8 factors.
		var conv float64
		frac := 1.0 / float64(p)
		for i := range m.Layers {
			l := &m.Layers[i]
			conv += e.Dev.LayerFW(l, b, frac) + e.Dev.LayerBW(l, b, frac)
		}
		conv /= measure.FrameworkEfficiency(core.Filter)
		total := res.Iter.FW + res.Iter.BW
		overhead := total - conv
		if overhead < 0 {
			overhead = 0
		}
		rows = append(rows, Fig8Row{
			P:          p,
			Ideal:      ref / float64(p),
			Conv:       conv,
			Overhead:   overhead,
			Efficiency: ref / float64(p) / total,
		})
	}
	return rows, nil
}

// WriteFig8 renders the breakdown.
func (e *Env) WriteFig8(w io.Writer) error {
	rows, err := e.Fig8()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 8 — filter-parallel compute breakdown, ResNet-50, B=32 (ms per iteration)")
	tw := newTable(w)
	fmt.Fprintln(tw, "GPUs\tideal (ref/p)\tconv kernels\tsplit/concat\tefficiency")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n",
			r.P, ms(r.Ideal), ms(r.Conv), ms(r.Overhead), pct(r.Efficiency))
	}
	return tw.Flush()
}
