package collective

import (
	"math"
	"testing"

	"paradl/internal/simnet"
)

// treeShape validates one parent array as a rooted tree: exactly one
// root, every parent in range, and every rank reaching the root (no
// cycles). It returns the root.
func treeShape(t *testing.T, parents []int) int {
	t.Helper()
	p := len(parents)
	root := -1
	for r, par := range parents {
		if par == -1 {
			if root >= 0 {
				t.Fatalf("two roots: %d and %d in %v", root, r, parents)
			}
			root = r
			continue
		}
		if par < 0 || par >= p || par == r {
			t.Fatalf("rank %d has invalid parent %d in %v", r, par, parents)
		}
	}
	if root < 0 {
		t.Fatalf("no root in %v", parents)
	}
	for r := range parents {
		seen := 0
		for cur := r; parents[cur] != -1; cur = parents[cur] {
			if seen++; seen > p {
				t.Fatalf("cycle reaching up from rank %d in %v", r, parents)
			}
		}
	}
	return root
}

// TestTwoTreeParentsShape: at every width both trees are valid rooted
// trees, and no rank is interior (has children) in both — the property
// that lets the two halves stream at full bandwidth concurrently.
func TestTwoTreeParentsShape(t *testing.T) {
	for p := 2; p <= 16; p++ {
		trees := TwoTreeParents(p)
		for tr := 0; tr < 2; tr++ {
			if len(trees[tr]) != p {
				t.Fatalf("p=%d tree %d has %d entries", p, tr, len(trees[tr]))
			}
			treeShape(t, trees[tr])
		}
		k0 := TreeChildren(trees[0])
		k1 := TreeChildren(trees[1])
		for r := 0; r < p; r++ {
			if len(k0[r]) > 0 && len(k1[r]) > 0 {
				t.Fatalf("p=%d: rank %d is interior in both trees", p, r)
			}
			if len(k0[r]) > 2 || len(k1[r]) > 2 {
				t.Fatalf("p=%d: rank %d exceeds binary degree (%d, %d children)",
					p, r, len(k0[r]), len(k1[r]))
			}
		}
	}
}

// TestTreeDepths: depths increase by one along every parent edge and
// the root sits at zero.
func TestTreeDepths(t *testing.T) {
	trees := TwoTreeParents(11)
	for tr := 0; tr < 2; tr++ {
		depths := TreeDepths(trees[tr])
		for r, par := range trees[tr] {
			if par == -1 {
				if depths[r] != 0 {
					t.Fatalf("root %d at depth %d", r, depths[r])
				}
				continue
			}
			if depths[r] != depths[par]+1 {
				t.Fatalf("rank %d depth %d, parent %d depth %d", r, depths[r], par, depths[par])
			}
		}
	}
}

// TestTwoTreeAllreduceOpConservation: the schedule moves exactly the
// ring allreduce's total of 2(p−1)·m bytes — the two-tree trades none
// of the ring's bandwidth optimality — in far fewer rounds than the
// ring's 2(p−1) once p outgrows log₂(p)+k.
func TestTwoTreeAllreduceOpConservation(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 16} {
		pes := make([]int, p)
		for i := range pes {
			pes[i] = i
		}
		m := 1e6
		op := TwoTreeAllreduceOp(pes, m, TwoTreeChunks)
		total := 0.0
		for _, round := range op.Rounds {
			if len(round) == 0 {
				t.Fatalf("p=%d: empty round in %s", p, op.Name)
			}
			for _, f := range round {
				total += f.Bytes
			}
		}
		if want := 2 * float64(p-1) * m; math.Abs(total-want) > want*1e-9 {
			t.Fatalf("p=%d: schedule moves %g bytes, want %g", p, total, want)
		}
	}
}

// TestSimTwoTreeFasterThanRingForSmall: on the simulated fabric the
// pipelined two-tree beats the ring for a latency-bound message at
// p=16, the regime the executable runtime switches algorithms in.
func TestSimTwoTreeFasterThanRingForSmall(t *testing.T) {
	topo, _ := testTopo()
	pes := make([]int, 16)
	for i := range pes {
		pes[i] = i
	}
	m := 4e3 // small-but-not-tiny: latency terms dominate the ring
	ring := Run(simnet.NewSim(topo.Net), topo, RingAllreduceOp(pes, m))
	two := Run(simnet.NewSim(topo.Net), topo, TwoTreeAllreduceOp(pes, m, TwoTreeChunks))
	if two >= ring {
		t.Fatalf("two-tree %g should beat the ring %g for small messages at p=16", two, ring)
	}
}
