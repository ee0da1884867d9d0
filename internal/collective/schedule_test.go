package collective

import (
	"math"
	"testing"

	"paradl/internal/simnet"
)

func TestRingRoundStepCounts(t *testing.T) {
	pes := []int{0, 1, 2, 3}
	ar, arSteps := RingRound("allreduce", pes, 1e6, false)
	if arSteps != 6 { // 2(p-1)
		t.Fatalf("allreduce steps %d", arSteps)
	}
	if len(ar.Rounds) != 1 || len(ar.Rounds[0]) != 4 {
		t.Fatalf("allreduce round structure %v", ar.Rounds)
	}
	_, agSteps := RingRound("allgather", pes, 1e6, false)
	if agSteps != 3 { // p-1
		t.Fatalf("allgather steps %d", agSteps)
	}
	_, rsSteps := RingRound("reducescatter", pes, 1e6, false)
	if rsSteps != 3 {
		t.Fatalf("reducescatter steps %d", rsSteps)
	}
	empty, steps := RingRound("allreduce", []int{0}, 1e6, false)
	if steps != 0 || len(empty.Rounds) != 0 {
		t.Fatal("p=1 ring must be empty")
	}
}

func TestRingRoundTimesStepsMatchesFullSchedule(t *testing.T) {
	// The representative-round shortcut must agree with the full
	// 2(p−1)-round schedule on an uncontended fabric.
	topo, _ := testTopo()
	pes := []int{0, 1, 2, 3, 4, 5, 6, 7}
	m := 40e6

	full := Run(simnet.NewSim(topo.Net), topo, RingAllreduceOp(pes, m))

	op, steps := RingRound("allreduce", pes, m/float64(len(pes)), false)
	one := Run(simnet.NewSim(topo.Net), topo, op)
	shortcut := one * float64(steps)

	if d := math.Abs(full-shortcut) / full; d > 0.01 {
		t.Fatalf("shortcut %g vs full %g (%.1f%% apart)", shortcut, full, d*100)
	}
}

func TestHaloZeroBytesEmpty(t *testing.T) {
	op := HaloExchangeOp([]int{0, 1}, 0, false)
	if len(op.Rounds) != 0 {
		t.Fatal("zero-byte halo must be empty")
	}
}

func TestRunConcurrentDisjointGroupsNoInterference(t *testing.T) {
	// Two Allreduces on different nodes' GPUs share no links; running
	// them together must cost the same as alone.
	topo, _ := testTopo()
	g0 := []int{0, 1, 2, 3}
	g1 := []int{4, 5, 6, 7}
	m := 30e6
	alone := Run(simnet.NewSim(topo.Net), topo, RingAllreduceOp(g0, m))
	els := RunConcurrent(simnet.NewSim(topo.Net), topo,
		[]*Op{RingAllreduceOp(g0, m), RingAllreduceOp(g1, m)})
	for i, el := range els {
		if d := math.Abs(el-alone) / alone; d > 0.01 {
			t.Fatalf("disjoint group %d slowed: %g vs %g", i, el, alone)
		}
	}
}
