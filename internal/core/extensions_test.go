package core

import (
	"testing"

	"paradl/internal/model"
)

func TestZeROShardsMemoryAndPaysComm(t *testing.T) {
	m := model.VGG16() // weight-heavy: where ZeRO matters
	cfg := testConfig(t, m, 64, 4)
	cfg.OptimizerExtraState = 2 // ADAM: ZeRO's original motivation

	base, err := Project(cfg, Data)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := ProjectZeRO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zero.MemoryPerPE >= base.MemoryPerPE {
		t.Fatalf("ZeRO memory %.1f GB must be below data's %.1f GB",
			zero.MemoryPerPE/1e9, base.MemoryPerPE/1e9)
	}
	// §5.3.2: "at the cost of extra communication of 50%".
	ratio := zero.Epoch.GE / base.Epoch.GE
	if ratio < 1.49 || ratio > 1.51 {
		t.Fatalf("ZeRO comm ratio %.3f, want 1.5", ratio)
	}
	// Sharded update.
	if zero.Epoch.WU >= base.Epoch.WU {
		t.Fatal("ZeRO shards the weight update")
	}
}

func TestWUShardedCutsUpdateNotComm(t *testing.T) {
	m := model.VGG16()
	cfg := testConfig(t, m, 64, 32)
	base, err := Project(cfg, Data)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := ProjectWUSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sharded.Epoch.WU*64, base.Epoch.WU; got < want*0.99 || got > want*1.01 {
		t.Fatalf("WU should shard exactly 1/p: %g vs %g/64", sharded.Epoch.WU, base.Epoch.WU)
	}
	if sharded.Epoch.GE != base.Epoch.GE {
		t.Fatal("RS+AG costs the same wire time as the ring Allreduce")
	}
	// The point of [52]: total time strictly improves for WU-heavy
	// models.
	if sharded.Epoch.Total() >= base.Epoch.Total() {
		t.Fatal("WU sharding must help VGG16")
	}
}

func TestFilterRSSavesAThirdOfComm(t *testing.T) {
	m := model.ResNet50()
	cfg := testConfig(t, m, 16, 2)
	cfg.B = 32
	base, err := Project(cfg, Filter)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ProjectFilterRS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rs.Epoch.FBComm / base.Epoch.FBComm
	if ratio < 0.66 || ratio > 0.67 {
		t.Fatalf("reduce-scatter ratio %.4f, want 2/3", ratio)
	}
}

func TestPipelineCheckpointTradesComputeForMemory(t *testing.T) {
	m := model.VGG16()
	cfg := testConfig(t, m, 4, 8)
	cfg.B = 32
	cfg.Segments = 4
	base, err := Project(cfg, Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ProjectPipelineCheckpointed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck.MemoryPerPE >= base.MemoryPerPE {
		t.Fatal("checkpointing must reduce memory")
	}
	if got, want := ck.Epoch.FW, 2*base.Epoch.FW; got < want*0.99 || got > want*1.01 {
		t.Fatalf("checkpointing recomputes FW: %g vs 2×%g", got, base.Epoch.FW)
	}
	if ck.Epoch.BW != base.Epoch.BW {
		t.Fatal("BW unchanged under checkpointing")
	}
}
