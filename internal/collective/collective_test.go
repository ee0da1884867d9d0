package collective

import (
	"math"
	"testing"
	"testing/quick"

	"paradl/internal/cluster"
	"paradl/internal/simnet"
)

var ab = AB{Alpha: 10e-6, Beta: 1.0 / 12.5e9}

func TestRingAllreduceFormula(t *testing.T) {
	m := 100e6
	p := 8
	want := 2 * float64(p-1) * (ab.Alpha + m/float64(p)*ab.Beta)
	if got := RingAllreduce(ab, p, m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %g want %g", got, want)
	}
	if RingAllreduce(ab, 1, m) != 0 {
		t.Fatal("p=1 must cost 0")
	}
}

func TestRingAllgatherFormula(t *testing.T) {
	chunk := 10e6
	p := 4
	want := float64(p-1) * (ab.Alpha + chunk*ab.Beta)
	if got := RingAllgather(ab, p, chunk); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %g want %g", got, want)
	}
}

func TestContentionScalesBeta(t *testing.T) {
	c := WithContention(ab, 2)
	if c.Beta != 2*ab.Beta || c.Alpha != ab.Alpha {
		t.Fatal("φ must scale β only")
	}
	if WithContention(ab, 0.5).Beta != ab.Beta {
		t.Fatal("φ<1 must clamp to 1")
	}
}

// Property: allreduce cost is monotonic in message size and in p (for
// fixed per-PE chunk regime the (p-1) term dominates).
func TestAllreduceMonotonicProperty(t *testing.T) {
	f := func(mRaw uint32, pRaw uint8) bool {
		m := float64(mRaw%1000000 + 1)
		p := int(pRaw%62) + 2
		return RingAllreduce(ab, p, m+1000) >= RingAllreduce(ab, p, m) &&
			RingAllreduce(ab, p+1, m) >= RingAllreduce(ab, p, m)*float64(p)/(float64(p)+1)*0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testTopo() (*simnet.Topology, *cluster.System) {
	sys := cluster.Default()
	return simnet.NewTopology(sys), sys
}

func TestSimRingAllreduceMatchesAnalyticIntraNode(t *testing.T) {
	topo, sys := testTopo()
	pes := []int{0, 1, 2, 3} // one node
	m := 100e6
	sim := simnet.NewSim(topo.Net)
	got := Run(sim, topo, RingAllreduceOp(pes, m))

	// Analytic with the intra-node α/β. The simulated fabric routes
	// every intra-node flow over its two NVLink hops, so bandwidth per
	// step matches 1/β; α differs by small constants.
	want := RingAllreduce(AB{Alpha: 4e-6, Beta: sys.NCCL[cluster.IntraNode].Beta}, len(pes), m)
	if got < want*0.8 || got > want*1.5 {
		t.Fatalf("simulated %g vs analytic %g out of tolerance", got, want)
	}
}

func TestSimAllgatherShorterThanAllreduce(t *testing.T) {
	topo, _ := testTopo()
	pes := []int{0, 1, 2, 3, 4, 5, 6, 7}
	m := 80e6
	s1 := simnet.NewSim(topo.Net)
	ar := Run(s1, topo, RingAllreduceOp(pes, m))
	s2 := simnet.NewSim(topo.Net)
	ag := Run(s2, topo, RingAllgatherOp(pes, m/float64(len(pes)), false))
	if ag >= ar {
		t.Fatalf("allgather %g should be cheaper than allreduce %g", ag, ar)
	}
}

func TestSegmentedAllreduceContention(t *testing.T) {
	// Four disjoint Allreduces, each among "GPU k of every node" — the
	// Data+Filter segmented exchange. The four rings spread two-and-two
	// across the node's two IB rails, so each must take ≈2× longer than
	// one ring running alone: exactly the contention penalty φ=2 the
	// paper plugs into its Fig. 3 df projections (§5.2).
	topo, sys := testTopo()
	nodes := 4
	mkPes := func(k int) []int {
		pes := make([]int, nodes)
		for n := 0; n < nodes; n++ {
			pes[n] = n*sys.GPUsPerNode + k
		}
		return pes
	}
	m := 50e6

	alone := Run(simnet.NewSim(topo.Net), topo, RingAllreduceOp(mkPes(0), m))

	ops := make([]*Op, sys.GPUsPerNode)
	for k := range ops {
		ops[k] = RingAllreduceOp(mkPes(k), m)
	}
	els := RunConcurrent(simnet.NewSim(topo.Net), topo, ops)
	for k, el := range els {
		phi := el / alone
		if phi < 1.8 || phi > 2.5 {
			t.Fatalf("segment %d: φ = %.2f (concurrent %g vs alone %g), want ≈2", k, phi, el, alone)
		}
	}
}

func TestHaloExchangeOpBidirectional(t *testing.T) {
	topo, _ := testTopo()
	op := HaloExchangeOp([]int{0, 1, 2, 3}, 1e6, true)
	if len(op.Rounds) != 1 {
		t.Fatalf("halo rounds %d", len(op.Rounds))
	}
	if len(op.Rounds[0]) != 6 { // 3 neighbour pairs × 2 directions
		t.Fatalf("halo flows %d, want 6", len(op.Rounds[0]))
	}
	el := Run(simnet.NewSim(topo.Net), topo, op)
	if el <= 0 {
		t.Fatal("halo must take time")
	}
}

func TestHaloMPISlowerThanNCCL(t *testing.T) {
	topo, _ := testTopo()
	pes := []int{0, 1, 2, 3}
	mpi := Run(simnet.NewSim(topo.Net), topo, HaloExchangeOp(pes, 5e6, true))
	gpu := Run(simnet.NewSim(topo.Net), topo, HaloExchangeOp(pes, 5e6, false))
	if mpi <= gpu {
		t.Fatalf("MPI halo %g must exceed GPU-direct halo %g (the paper's P2P bottleneck)", mpi, gpu)
	}
}

func TestBcastOpRounds(t *testing.T) {
	op := BcastOp([]int{0, 1, 2, 3, 4, 5, 6, 7}, 1e6)
	if len(op.Rounds) != 3 {
		t.Fatalf("bcast of 8 PEs needs 3 rounds, got %d", len(op.Rounds))
	}
	total := 0
	for _, r := range op.Rounds {
		total += len(r)
	}
	if total != 7 {
		t.Fatalf("bcast flow count %d, want 7", total)
	}
}

func TestP2POp(t *testing.T) {
	topo, _ := testTopo()
	el := Run(simnet.NewSim(topo.Net), topo, P2POp(0, 4, 10e6, false))
	// 10 MB over a 25 GB/s node uplink ≥ 0.4 ms
	if el < 0.4e-3 {
		t.Fatalf("p2p too fast: %g", el)
	}
}

func TestEmptyOpsCompleteInstantly(t *testing.T) {
	topo, _ := testTopo()
	els := RunConcurrent(simnet.NewSim(topo.Net), topo, []*Op{
		RingAllreduceOp([]int{0}, 1e6), // p=1 → empty
		P2POp(0, 1, 1e3, false),
	})
	if els[0] != 0 {
		t.Fatalf("empty op elapsed %g", els[0])
	}
	if els[1] <= 0 {
		t.Fatal("real op must take time")
	}
}

func TestScaleUpIncreasesAllreduceTime(t *testing.T) {
	topo, sys := testTopo()
	m := 25e6
	var prev float64
	for _, nodes := range []int{1, 2, 4, 8} {
		p := nodes * sys.GPUsPerNode
		pes := make([]int, p)
		for i := range pes {
			pes[i] = i
		}
		el := Run(simnet.NewSim(topo.Net), topo, RingAllreduceOp(pes, m))
		if el <= prev {
			t.Fatalf("allreduce time must grow with p: p=%d gave %g (prev %g)", p, el, prev)
		}
		prev = el
	}
}
