package collective

// This file defines the double binary tree ("two-tree") of Sanders,
// Speck & Träff — the algorithm NCCL uses for buffers too small for the
// ring to amortize its 2(p−1) latency terms but too large for a plain
// binomial tree's ⌈log₂p⌉·m per-hop payloads. The buffer is split into
// two halves, each reduced up and broadcast down its own tree in
// pipelined chunks; the trees are arranged so every rank is interior in
// at most one of them, so the two halves stream concurrently and each
// PE's bandwidth load stays ≈2·m/2 per tree instead of the binomial
// root's ⌈log₂p⌉·m.
//
// Like order.go, the construction lives here, beside the analytic
// collectives, and the executable runtime (internal/dist/comm.go) walks
// it: the runtime inherits a fixed, seed-independent association order
// — at every interior node the reduction is (own + child₀) + child₁
// with children in ascending rank order, determined by the tree shape
// alone.

// TwoTreeChunks is the pipelining depth of the two-tree allreduce: each
// half of the buffer streams through its tree in this many chunks.
const TwoTreeChunks = 4

// TwoTreeParents returns the two rooted trees of the double-binary-tree
// allreduce over p ranks: parents[tr][r] is r's parent in tree tr, −1
// at that tree's root.
//
// Tree 0 is built recursively: the root of a rank range is the largest
// power-of-two-minus-one offset the range admits, which makes its
// leaves exactly the even ranks. Tree 1 is the same shape with every
// rank shifted by one (rank r plays tree 0's role of (r+1) mod p), so
// its interior ranks are exactly tree 0's leaves: every rank is
// interior in at most one tree.
func TwoTreeParents(p int) [2][]int {
	var t [2][]int
	t[0] = make([]int, p)
	t[1] = make([]int, p)
	var build func(lo, hi, parent int)
	build = func(lo, hi, parent int) {
		n := hi - lo
		if n <= 0 {
			return
		}
		k := 1
		for 2*k <= n {
			k *= 2
		}
		root := lo + k - 1
		t[0][root] = parent
		build(lo, root, root)
		build(root+1, hi, root)
	}
	build(0, p, -1)
	for r := 0; r < p; r++ {
		par := t[0][(r+1)%p]
		if par < 0 {
			t[1][r] = -1
		} else {
			t[1][r] = (par - 1 + p) % p
		}
	}
	return t
}

// TreeChildren inverts a parent array into per-rank child lists in
// ascending rank order — the traversal and association order both sides
// of the two-tree use.
func TreeChildren(parents []int) [][]int {
	kids := make([][]int, len(parents))
	for r, par := range parents {
		if par >= 0 {
			kids[par] = append(kids[par], r)
		}
	}
	return kids
}

// TreeDepths returns each rank's distance from the root of the given
// parent array.
func TreeDepths(parents []int) []int {
	depth := make([]int, len(parents))
	var walk func(r int) int
	walk = func(r int) int {
		if parents[r] < 0 {
			return 0
		}
		if depth[r] == 0 {
			depth[r] = walk(parents[r]) + 1
		}
		return depth[r]
	}
	for r := range parents {
		walk(r)
	}
	return depth
}
