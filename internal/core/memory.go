package core

import "paradl/internal/strategy"

// MemoryPerPE evaluates the "Maximum Memory Per PE" column of Table 3
// in bytes: the γ-scaled practical estimate (§4.2) over the naive
// per-layer aggregation of inputs, activations, weights, biases and
// their gradients. cfg must be validated (Validate) for s.
func MemoryPerPE(cfg Config, s Strategy) float64 {
	g := Grid(cfg, s)
	return memoryBytes(cfg, float64(cfg.B), g.Shares(), g.Stages)
}

// memoryBytes is the column for batch b under a row's shares. Each PE
// stores its share of every layer of its stage — the whole model when
// stages is nil — and the bound is the largest stage (eq. 14).
// Activations are divided as the row says (the replicated weights of
// the Spatial row are the memory redundancy of §5.3.2); the weight-side
// variables per parameter — the weight and its gradient (Table 3's 2|w|)
// plus any persistent optimizer state (§5.3.3: ADAM keeps two extra
// moments) — shard with the weights.
func memoryBytes(cfg Config, b float64, sh strategy.Shares, stages []strategy.Range) float64 {
	whole := [1]strategy.Range{{Start: 0, End: cfg.Model.G()}}
	if stages == nil {
		stages = whole[:]
	}
	wVars := 2 + float64(cfg.OptimizerExtraState)
	maxItems := 0.0
	for _, st := range stages {
		items := 0.0
		for i := st.Start; i < st.End; i++ {
			l := &cfg.Model.Layers[i]
			items += 2*b/sh.Batch*float64(l.InSize()+l.OutSize())/sh.Act + wVars*float64(l.WeightSize())/sh.Weight + float64(l.BiasSize())
		}
		maxItems = max(maxItems, items)
	}
	return cfg.Sys.MemReuseFactor * cfg.Sys.BytesPerItem * maxItems
}
