package tensor

// Scratch is the working memory of the window kernels and the FC
// forward: the lowering's tile, packed dy and step list (conv.go),
// pooling's shares, the bordered planes of both (plane.go), and the FC
// forward's packed x, step list and padded lanes. Those kernels take one
// as an optional last argument. A call given none allocates its own,
// which dies with the call. A caller that keeps one (a network keeps one
// per layer) lends it to every call of the layer's kernels: the first
// call grows it and later calls of the same shapes allocate nothing. A
// Scratch must not be lent to two calls at once, so concurrent PEs each
// keep their own.
//
// Nothing a call reads from a Scratch depends on an earlier call: every
// buffer is written before it is read, the planes a scatter sums into are
// cleared per sample, and the planes a gather reads get their border
// refilled once per call (border), since a scatter or another layout
// may have left other values there.
type Scratch struct {
	floats []float64 // tile, packed dy or x, shares, planes and padded lanes
	steps  []int     // gemmCols' step list
}

// scratchOf returns the scratch a caller lent, or own when it lent none.
func scratchOf(lent []*Scratch, own *Scratch) *Scratch {
	if len(lent) > 0 && lent[0] != nil {
		return lent[0]
	}
	return own
}

// grow returns (*buf)[:n], reallocating *buf when it is shorter.
func grow[T float64 | int](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
