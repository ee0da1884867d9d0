package core

// This file models the optimizations the paper names as remedies for
// the limitations of §5.3 — they are projections a user can compare
// against the base strategies:
//
//   - ZeRO weight partitioning (§5.3.2 "Redundancy in Memory")
//   - cross-replica weight-update sharding (§5.3.3 "Weight update",
//     citing Xu et al. [52])
//   - reduce-scatter filter backward (§3.3 footnote 2)
//   - gradient-checkpointed pipeline (§5.3.2, GPipe/PipeDream style)
//
// The pipeline+data hybrid of §5.3.3 ("Workload Balancing") is a
// registry strategy: Project(cfg, DataPipeline).

// ProjectZeRO projects data parallelism with ZeRO-style partitioning of
// weights and optimizer state: per-PE memory drops to |w|/p, at the
// cost of 50% extra gradient-exchange communication — "two Allgathers
// of the weights are needed in the forward and backward passes"
// (§5.3.2). On the wire: reduce-scatter of gradients plus two weight
// Allgathers = 3(p−1) chunk rounds vs the ring Allreduce's 2(p−1).
func ProjectZeRO(cfg Config) (*Projection, error) {
	pr, g, err := projectBase(cfg, Data)
	if err != nil {
		return nil, err
	}
	p := float64(pr.Config.P)
	// Sharded update: each PE updates its 1/p slice.
	pr.Epoch.WU /= p
	// +50% communication.
	pr.Epoch.GE *= 1.5
	// Memory: activations like data parallelism, weight+gradient+
	// optimizer state all sharded 1/p.
	sh := g.Shares()
	sh.Weight = p
	pr.MemoryPerPE = memoryBytes(pr.Config, float64(pr.Config.B), sh, nil)
	pr.Notes = append(pr.Notes, "ZeRO: weights, gradients and optimizer state partitioned across PEs")
	finish(pr.Config, pr)
	return pr, nil
}

// ProjectWUSharded projects data parallelism with the weight update
// sharded across replicas ([52]): gradients are reduce-scattered, each
// PE updates its 1/p shard, and the fresh weights are Allgathered
// before the next forward pass. Wire cost equals the plain ring
// Allreduce (RS + AG = 2(p−1) chunk rounds) while WU time drops to 1/p
// — the fix for VGG16's 15% WU share.
func ProjectWUSharded(cfg Config) (*Projection, error) {
	pr, _, err := projectBase(cfg, Data)
	if err != nil {
		return nil, err
	}
	pr.Epoch.WU /= float64(pr.Config.P)
	pr.Notes = append(pr.Notes, "weight update sharded across replicas (reduce-scatter + allgather)")
	finish(pr.Config, pr)
	return pr, nil
}

// ProjectFilterRS projects filter parallelism with the footnote-2
// optimization: the backward input-gradient Allreduce is replaced by a
// Reduce-Scatter (each preceding layer only needs one partition of the
// gradients), cutting the layer-wise rounds from 3(p−1) to 2(p−1).
func ProjectFilterRS(cfg Config) (*Projection, error) {
	pr, _, err := projectBase(cfg, Filter)
	if err != nil {
		return nil, err
	}
	// 2/3 of the 3(p−1)-round cost: Allgather forward + Reduce-Scatter
	// backward.
	pr.Epoch.FBComm *= 2.0 / 3.0
	pr.Notes = append(pr.Notes, "reduce-scatter backward (footnote 2): 2(p−1) rounds per boundary")
	finish(pr.Config, pr)
	return pr, nil
}

// ProjectPipelineCheckpointed projects the pipeline strategy with
// gradient checkpointing at partition boundaries (§5.3.2): only the
// boundary activations of each micro-batch stay resident (activation
// memory shrinks by ≈1/S), paid for by recomputing the forward pass
// inside each partition during backward (FW compute doubles).
func ProjectPipelineCheckpointed(cfg Config) (*Projection, error) {
	pr, g, err := projectBase(cfg, Pipeline)
	if err != nil {
		return nil, err
	}
	pr.Epoch.FW *= 2 // recompute inside each partition
	// Activation term shrinks to ~1/S; parameters (the column at batch
	// 0, over the largest stage) unchanged, to keep the bound honest.
	paramBytes := memoryBytes(pr.Config, 0, g.Shares(), g.Stages)
	actBytes := max(0, pr.MemoryPerPE-paramBytes)
	pr.MemoryPerPE = paramBytes + actBytes/float64(pr.Config.Segments)
	pr.Notes = append(pr.Notes, "gradient checkpointing at partition boundaries (FW recompute)")
	finish(pr.Config, pr)
	return pr, nil
}
