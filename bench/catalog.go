package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The catalogue is the single source of the benchmark's names: the
// workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics. BENCHMARK.json at the repo root is this table
// printed by -manifest; bench_test.go pins the two equal.

// runSeconds is how long one driver run measures (BENCHMARK.json
// run_seconds): the driver's 92 runs, about 31 s each with set-up,
// stay inside its 3420 s cap.
const runSeconds = 30

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"train_compute", "bench-wide2d (conv-heavy, batch 8) under serial and the p=2/p=4 plans: tensor conv kernels do ~95% of the work, so kernel changes show here and collective changes must not"},
	{"train_comm", "bench-fcnet (1.2M params, ~10 MB of gradients, batch 4): gradient exchange and weight update dominate data:2, so collective/overlap/pooling changes show here and conv-kernel changes must not"},
	{"train_small", "zoo tinycnn-nobn, tinyresnet (DAG) and tiny3d (3-D conv), 8-iteration runs: tiny tree/two-tree messages, halo and pipeline P2P, world set-up and allocation per short run dominate"},
	{"plan_serve", "in-process planner over loopback HTTP, 2 closed-loop clients, 60/30/10 advise/project/sweep: cold distinct keys, 64 hot keys, Zipf churn over 8x the LRU; no training code on its own metrics"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// bound is the share of the parent's median by which an end-to-end
// metric may worsen. There is one bound per metric, so its noisiest
// cell sets it: on the 2-vCPU reference VM own cells spread 2–8% from
// run to run but the short cross-check cells up to 14% (README, "How
// the bounds were measured"), and a bound under about twice that would
// reject unchanged code. 0.25 is also the most the driver allows.
const bound = 0.25

// endToEnd lists the nine metrics a user of the system sees. Every
// workload reports all nine: it measures its own domain's metrics over
// most of the run and the other domain's over short cross-check
// stretches (README, "Cross-check cells").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, bound},
	{"serial_samples_per_s", "1/s", higher, bound},
	{"data_samples_per_s", "1/s", higher, bound},
	{"modelpar_samples_per_s", "1/s", higher, bound},
	{"p4_samples_per_s", "1/s", higher, bound},
	{"cold_ms_p50", "ms", lower, bound},
	{"cold_ms_p99", "ms", lower, bound},
	{"hot_req_per_s", "1/s", higher, bound},
	{"churn_req_per_s", "1/s", higher, bound},
}

// planSuffixes are the eleven plans of the engine rungs, in the order
// a training round runs them.
var planSuffixes = []string{"serial", "data2", "spatial2", "filter2", "channel2", "pipeline2", "data4", "filter4", "df2x2", "ds2x2", "dp2x2"}

// tracedSharePlans are the plans whose phase shares are reported.
var tracedSharePlans = []string{"data2", "filter2", "spatial2", "pipeline2", "df2x2"}

// perLayer builds the 119 per-layer metric definitions, grouped by the
// repo module they measure.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }

	// tensor (17)
	for _, n := range []string{"conv_fwd_ms", "conv_bwd_data_ms", "conv_bwd_weight_ms"} {
		add("tensor."+n, "ms", lower)
	}
	add("tensor.conv_gflops", "GFLOP/s", higher)
	add("tensor.conv_allocs", "count", lower)
	add("tensor.conv_alloc_kb", "KiB", lower)
	for _, n := range []string{"conv1x1_fwd_ms", "conv1x1_bwd_ms", "conv3d_fwd_ms", "conv3d_bwd_ms", "fc_fwd_ms", "fc_bwd_ms", "pool_ms", "relu_ms", "bn_ms"} {
		add("tensor."+n, "ms", lower)
	}
	add("tensor.softmax_xent_us", "us", lower)
	add("tensor.sgd_step_ms", "ms", lower)

	// nn (10)
	for _, n := range []string{"train_step_ms", "fwd_ms", "bwd_ms", "step_ms"} {
		add("nn."+n, "ms", lower)
	}
	add("nn.conv_share", "ratio", lower)
	add("nn.fc_share", "ratio", lower)
	add("nn.graph_overhead_pct", "%", lower)
	add("nn.train_step_allocs", "count", lower)
	add("nn.train_step_alloc_kb", "KiB", lower)
	add("nn.compile_graph_us", "us", lower)

	// dist collectives (16)
	for _, p := range []int{2, 4} {
		for _, n := range []int{32, 128, 4096, 262144} {
			add(fmt.Sprintf("dist.allreduce_us.p%d.n%d", p, n), "us", lower)
		}
	}
	add("dist.allreduce_mbps.p2.n262144", "MB/s", higher)
	add("dist.iallreduce_us.p2.n262144", "us", lower)
	add("dist.reduce_scatter_us.p2.n4096", "us", lower)
	add("dist.allgather_us.p2.n4096", "us", lower)
	add("dist.allreduce_scalar_us.p2", "us", lower)
	add("dist.sendrecv_us.n4096", "us", lower)
	add("dist.allreduce_allocs.p2.n262144", "count", lower)
	add("dist.world_setup_us", "us", lower)

	// dist engines (30)
	for _, s := range planSuffixes {
		add("dist.iter_ms."+s, "ms", lower)
	}
	for _, s := range planSuffixes {
		add("dist.allocs_per_iter."+s, "count", lower)
	}
	add("dist.alloc_kb_per_iter.serial", "KiB", lower)
	add("dist.alloc_kb_per_iter.data2", "KiB", lower)
	add("dist.run_fixed_ms", "ms", lower)
	add("dist.serial_overhead_pct", "%", lower)
	add("dist.scaling_eff.data2", "ratio", higher)
	add("dist.overlap_gain_pct.data2", "%", higher)
	add("dist.ckpt_gather_stall_pct.data2", "%", lower)
	add("dist.loss_max_abs_diff", "abs", lower)

	// trace (14)
	for _, s := range tracedSharePlans {
		add("trace.compute_share."+s, "ratio", higher)
	}
	for _, s := range tracedSharePlans {
		add("trace.comm_share."+s, "ratio", lower)
	}
	add("trace.hidden_comm_ms.data2", "ms", higher)
	add("trace.coverage_min", "ratio", higher)
	add("trace.dropped_events", "count", lower)
	add("trace.collective_events_per_iter.data2", "count", lower)

	// ckpt (6)
	add("ckpt.state_mb", "MB", lower)
	for _, n := range []string{"encode_ms", "decode_ms", "save_ms", "load_ms"} {
		add("ckpt."+n, "ms", lower)
	}
	add("ckpt.writer_put_ns", "ns", lower)

	// model / profile / core (8)
	for _, n := range []string{"model.build_us", "profile.profile_model_us", "core.project_us", "core.advise_us.p64", "core.advise_us.p1024", "core.resolve_us", "core.key_us", "core.encode_us"} {
		add(n, "us", lower)
	}

	// serve (15)
	add("serve.handler_hot_us", "us", lower)
	add("serve.handler_cold_us", "us", lower)
	add("serve.handler_sweep_cold_ms", "ms", lower)
	add("serve.loopback_overhead_us", "us", lower)
	for _, n := range []string{"hot_ms_p50", "hot_ms_p99", "churn_ms_p50", "churn_ms_p99"} {
		add("serve."+n, "ms", lower)
	}
	add("serve.hit_ratio.hot", "ratio", higher)
	add("serve.hit_ratio.churn", "ratio", higher)
	add("serve.computations", "count", lower)
	add("serve.coalesced", "count", higher)
	add("serve.shed", "count", lower)
	add("serve.hot_allocs_per_req", "count", lower)
	add("serve.errors", "count", lower)

	// cmd (2), bench (1)
	add("cmd.paradl_train_ms", "ms", lower)
	add("cmd.paradl_advise_ms", "ms", lower)
	add("bench.traced_run_overhead_pct", "%", lower)
	return out
}

// manifest is BENCHMARK.json: exactly the keys the driver's contract
// names.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func buildManifest() manifest {
	return manifest{
		// -C enters the benchmark's own module; the package is named by
		// import path so the command names no path outside bench/.
		Command:    []string{"go", "run", "-C", "bench", "paradl/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
}

// manifestJSON renders BENCHMARK.json. End-to-end rows always carry
// their bound; per-layer rows never do.
func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, "|")
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
