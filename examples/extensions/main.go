// Extensions: the remedies the paper proposes for its §5.3 limitations,
// projected side by side against the base strategies — ZeRO weight
// partitioning, cross-replica weight-update sharding, the
// reduce-scatter filter backward, gradient-checkpointed pipelines,
// the pipeline+data hybrid, ADAM's weight-update inflation, and the
// congestion impact factor. Each row answers "is the cure worth it?"
// for a concrete configuration.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"paradl"
	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/measure"
	"paradl/internal/profile"
)

func main() {
	zeroStudy()
	filterRSStudy()
	pipelineStudy()
	adamStudy()
	congestionStudy()
}

func zeroStudy() {
	m, err := paradl.Model("vgg16")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== ZeRO & weight-update sharding (VGG16, 64 GPUs, b=4, ADAM) ==")
	cfg := paradl.WeakScalingConfig(m, 64, 4)
	cfg.OptimizerExtraState = 2
	sys := cluster.Default()
	dev := profile.NewDevice(sys.GPU)
	cfg.Times = profile.ProfileModelOpt(dev, m, 4, profile.AdamSpec())

	base, _ := paradl.Project(cfg, paradl.Data)
	zero, _ := core.ProjectZeRO(cfg)
	wus, _ := core.ProjectWUSharded(cfg)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\titer total\tWU\tGE\tmem/GPU")
	row := func(name string, pr *core.Projection) {
		it := pr.Iter()
		fmt.Fprintf(tw, "%s\t%.1f ms\t%.1f ms\t%.1f ms\t%.1f GB\n",
			name, it.Total()*1e3, it.WU*1e3, it.GE*1e3, pr.MemoryPerPE/1e9)
	}
	row("data (baseline)", base)
	row("data + ZeRO", zero)
	row("data + WU sharding", wus)
	tw.Flush()
	fmt.Println()
}

func filterRSStudy() {
	m, err := paradl.Model("resnet50")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== reduce-scatter filter backward (ResNet-50, B=32) ==")
	cfg := paradl.StrongScalingConfig(m, 16, 32)
	base, _ := paradl.Project(cfg, paradl.Filter)
	rs, _ := core.ProjectFilterRS(cfg)
	fmt.Printf("  allreduce backward: %.0f ms/iter comm\n", base.Iter().Comm()*1e3)
	fmt.Printf("  reduce-scatter:     %.0f ms/iter comm (×%.2f)\n\n",
		rs.Iter().Comm()*1e3, rs.Iter().Comm()/base.Iter().Comm())
}

func pipelineStudy() {
	m, err := paradl.Model("vgg16")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== pipeline variants (VGG16, B=32, S=4) ==")
	cfg := paradl.StrongScalingConfig(m, 4, 32)
	base, _ := paradl.Project(cfg, paradl.Pipeline)
	ck, _ := core.ProjectPipelineCheckpointed(cfg)
	// 2 data-parallel groups × 4 pipeline stages: the registry's dp hybrid.
	hd := cfg
	hd.P, hd.P1, hd.P2 = 8, 2, 4
	hd.B = 64
	pd, err := paradl.Project(hd, paradl.DataPipeline)
	if err != nil {
		log.Fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\titer total\tmem/GPU")
	fmt.Fprintf(tw, "pipeline p=4\t%.1f ms\t%.1f GB\n", base.Iter().Total()*1e3, base.MemoryPerPE/1e9)
	fmt.Fprintf(tw, "+ checkpointing\t%.1f ms\t%.1f GB\n", ck.Iter().Total()*1e3, ck.MemoryPerPE/1e9)
	fmt.Fprintf(tw, "data 2 × pipeline 4\t%.1f ms\t%.1f GB\n", pd.Iter().Total()*1e3, pd.MemoryPerPE/1e9)
	tw.Flush()
	fmt.Println()
}

func adamStudy() {
	m, err := paradl.Model("vgg16")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== ADAM vs SGD weight-update share (VGG16, b=32) ==")
	sys := cluster.Default()
	dev := profile.NewDevice(sys.GPU)
	for _, opt := range []profile.OptimizerSpec{profile.SGDSpec(), profile.AdamSpec()} {
		times := profile.ProfileModelOpt(dev, m, 32, opt)
		cfg := paradl.WeakScalingConfig(m, 16, 32)
		cfg.Times = times
		cfg.OptimizerExtraState = opt.ExtraState
		pr, _ := paradl.Project(cfg, paradl.Data)
		fmt.Printf("  %-5s: WU %.1f ms (%.0f%% of compute), memory %.1f GB\n",
			opt.Name, pr.Iter().WU*1e3, 100*pr.Iter().WU/pr.Iter().Comp(), pr.MemoryPerPE/1e9)
	}
	fmt.Println()
}

func congestionStudy() {
	fmt.Println("== congestion impact factor (§4.3) ==")
	sys := cluster.Default()
	eng := measure.NewEngine(sys)
	m, err := paradl.Model("resnet50")
	if err != nil {
		log.Fatal(err)
	}
	cfg := paradl.WeakScalingConfig(m, 64, 32)
	pr, _ := paradl.Project(cfg, paradl.Data)
	for _, load := range []float64{0, 0.5, 1.5} {
		f, err := measure.EstimateImpactFactor(eng, 64, 100e6, load, 10, 7)
		if err != nil {
			log.Fatal(err)
		}
		adj := pr.WithCongestionFactor(f.Mean)
		fmt.Printf("  load %.1f: impact factor %.2f (p99 %.2f) → projected iter %.1f ms\n",
			load, f.Mean, f.P99, adj.Iter().Total()*1e3)
	}
}
