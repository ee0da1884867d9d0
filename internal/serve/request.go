package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/data"
)

// Request is the planner's wire request, shared by /project, /advise,
// and /sweep. Fields irrelevant to an endpoint are ignored and zeroed
// during canonicalization so they cannot fragment the cache key space.
//
// Batch semantics follow the paradl CLI: Batch is samples per GPU (the
// paper's weak-scaling convention, global B = Batch·P), BatchGlobal
// overrides it with a fixed global mini-batch (strong scaling). Under
// weak scaling a sweep re-derives B at every grid width.
type Request struct {
	// Model is a zoo model name (resnet50|resnet152|vgg16|cosmoflow|
	// tinyresnet|tinycnn|tinycnn-nobn|tiny3d).
	Model string `json:"model"`
	// Cluster names the machine; empty or "default" resolves to the
	// paper's evaluation system ("abci-like").
	Cluster string `json:"cluster,omitempty"`
	// GPUs is the total PE count P (/project and /advise).
	GPUs int `json:"gpus,omitempty"`
	// Batch is samples per GPU; defaults to 32 when BatchGlobal is unset.
	Batch int `json:"batch,omitempty"`
	// BatchGlobal fixes the global mini-batch, overriding Batch.
	BatchGlobal int `json:"batch_global,omitempty"`
	// D is the dataset size in samples; defaults to the model's paper
	// dataset (ImageNet/CosmoFlow). Models without a default dataset
	// (the toy zoo) must pass it explicitly.
	D int64 `json:"d,omitempty"`
	// P1/P2 split hybrid strategies (see core.Config).
	P1 int `json:"p1,omitempty"`
	P2 int `json:"p2,omitempty"`
	// Segments is the pipeline segment count S (0 = the oracle's
	// default of 4).
	Segments int `json:"segments,omitempty"`
	// Phi is the self-contention coefficient φ (0 = automatic).
	Phi float64 `json:"phi,omitempty"`
	// OptimizerExtraState is the per-parameter optimizer state beyond
	// weight+gradient (see core.Config).
	OptimizerExtraState int `json:"optimizer_extra_state,omitempty"`
	// Strategy selects the projection of /project (any spelling
	// core.ParseStrategy accepts; canonicalized before keying).
	Strategy string `json:"strategy,omitempty"`
	// PS is the /sweep grid of total PE counts; empty selects the
	// default power-of-two grid 2…1024.
	PS []int `json:"ps,omitempty"`
}

// defaultSweepPS is the default /sweep width grid.
func defaultSweepPS() []int {
	return []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// normalize canonicalizes a request for one endpoint: defaults applied,
// names resolved to canonical spellings, endpoint-irrelevant fields
// zeroed. Two requests that mean the same thing normalize equal — and
// therefore share one cache key — regardless of JSON field order, float
// spelling, or strategy aliases ("df" vs "data+filter").
func (r Request) normalize(endpoint string) (Request, error) {
	if r.Model == "" {
		return r, fmt.Errorf("serve: request needs a model")
	}
	sys, err := cluster.ByName(r.Cluster)
	if err != nil {
		return r, err
	}
	r.Cluster = sys.Name
	if r.BatchGlobal < 0 || r.Batch < 0 || r.GPUs < 0 || r.D < 0 || r.P1 < 0 || r.P2 < 0 {
		return r, fmt.Errorf("serve: negative batch/gpus/d")
	}
	if r.BatchGlobal > 0 {
		r.Batch = 0
	} else if r.Batch == 0 {
		r.Batch = 32
	}
	if r.D == 0 {
		ds, err := data.ForModel(r.Model)
		if err != nil {
			return r, fmt.Errorf("serve: model %q has no default dataset; pass d explicitly", r.Model)
		}
		r.D = ds.Samples
	}

	switch endpoint {
	case "project":
		if r.GPUs < 1 {
			return r, fmt.Errorf("serve: /project needs gpus ≥ 1")
		}
		if r.Strategy == "" {
			return r, fmt.Errorf("serve: /project needs a strategy")
		}
		s, err := core.ParseStrategy(r.Strategy)
		if err != nil {
			return r, err
		}
		r.Strategy = s.String()
		r.PS = nil
	case "advise":
		if r.GPUs < 1 {
			return r, fmt.Errorf("serve: /advise needs gpus ≥ 1")
		}
		r.Strategy = ""
		r.PS = nil
	case "sweep":
		r.Strategy = ""
		r.GPUs, r.P1, r.P2 = 0, 0, 0
		ps := r.PS
		if len(ps) == 0 {
			ps = defaultSweepPS()
		}
		uniq := map[int]bool{}
		var clean []int
		for _, p := range ps {
			if p >= 1 && !uniq[p] {
				uniq[p] = true
				clean = append(clean, p)
			}
		}
		if len(clean) == 0 {
			return r, fmt.Errorf("serve: /sweep ps has no positive widths")
		}
		sort.Ints(clean)
		r.PS = clean
	default:
		return r, fmt.Errorf("serve: unknown endpoint %q", endpoint)
	}
	return r, nil
}

// canonical renders the normalized request in its content-addressed
// form: version tag, endpoint, and every field in fixed order with
// shortest-round-trip float formatting.
func (r Request) canonical(endpoint string) string {
	ps := make([]string, len(r.PS))
	for i, p := range r.PS {
		ps[i] = strconv.Itoa(p)
	}
	return fmt.Sprintf("paraserve/v1|%s|model=%s|cluster=%s|gpus=%d|batch=%d|batch_global=%d|d=%d|p1=%d|p2=%d|segments=%d|phi=%s|optextra=%d|strategy=%s|ps=%s",
		endpoint, r.Model, r.Cluster, r.GPUs, r.Batch, r.BatchGlobal, r.D, r.P1, r.P2,
		r.Segments, strconv.FormatFloat(r.Phi, 'g', -1, 64), r.OptimizerExtraState,
		r.Strategy, strings.Join(ps, ","))
}

// key returns the content address of the normalized request: the
// SHA-256 of its canonical rendering.
func (r Request) key(endpoint string) string {
	sum := sha256.Sum256([]byte(r.canonical(endpoint)))
	return hex.EncodeToString(sum[:])
}

// configRef builds the oracle config reference for a single-point
// endpoint (/project, /advise) at the request's own GPU count.
func (r Request) configRef() core.ConfigRef {
	b := r.BatchGlobal
	if b == 0 {
		b = r.Batch * r.GPUs
	}
	return core.ConfigRef{
		Model: r.Model, Cluster: r.Cluster, D: r.D, B: b, P: r.GPUs,
		P1: r.P1, P2: r.P2, Segments: r.Segments, Phi: r.Phi,
		OptimizerExtraState: r.OptimizerExtraState,
	}
}

// Config normalizes the request with /advise semantics and resolves it
// into the full oracle config — the exact Config the server projects
// for the same request, exported so in-process clients (paradl
// -advise-and-train) and the HTTP path agree bit for bit.
func (r Request) Config() (core.Config, error) {
	n, err := r.normalize("advise")
	if err != nil {
		return core.Config{}, err
	}
	return n.configRef().Resolve()
}
