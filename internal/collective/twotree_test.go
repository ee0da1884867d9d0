package collective

import "testing"

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
