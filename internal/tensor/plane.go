package tensor

// grid is the sliding-window geometry convolution and pooling share. A
// window of extent win moves with stride over a plane: one channel of a
// sample copied into the interior of a buffer that has pad elements of
// border on both sides of every dimension (extent in[d]+2·pad[d]). Tap
// t of output position o then reads plane coordinate o·stride + t in
// every dimension, always inside the buffer, so a (tap, output row) pair
// is an unclipped strided run of out[last] elements, with no bounds
// arithmetic and no padding case. The border holds whatever the kernel
// needs padding to read as (0 for a sum, −Inf for a max), and a scatter
// into it is discarded. With every pad 0 the sample itself is the plane.
type grid struct {
	in, out, win, stride, pad []int
	vol                       int  // floats of one plane
	padded                    bool // some pad is positive: the plane is a bordered copy
}

// unit and origin stand in for the spatial dims of a rank-0 window: one
// position, one tap.
var unit, origin = []int{1}, []int{0}

func newGrid(in, out, win, stride, pad []int) grid {
	if len(in) == 0 {
		in, out, win, stride, pad = unit, unit, unit, unit, origin
	}
	g := grid{in: in, out: out, win: win, stride: stride, pad: pad, vol: 1}
	for d, e := range in {
		g.vol *= e + 2*pad[d]
		g.padded = g.padded || pad[d] > 0
	}
	return g
}

// walkRuns bounds the row runs a kernel tabulates (on its stack) for
// one pass over the taps.
const walkRuns = 32

// run is the part of one output row a pass covers: w positions from
// tile (or output) column at, whose tap 0 reads plane offset base and
// unpadded sample offset u (negative when it lands in the border).
type run struct{ base, u, at, w int }

// runs cuts the output positions [m, m1) into at most len(buf) row runs,
// columns counted from m0, and returns them with the first position
// they leave out.
func (g *grid) runs(buf []run, m0, m, m1 int) ([]run, int) {
	last := len(g.in) - 1
	wOut, s := g.out[last], g.stride[last]
	n := 0
	for ; m < m1 && n < len(buf); n++ {
		row, ox := m/wOut, m%wOut
		w := min(wOut-ox, m1-m)
		base, u := g.offsets(row, g.out, true)
		buf[n] = run{base: base + ox*s, u: u + ox*s, at: m - m0, w: w}
		m += w
	}
	return buf[:n], m
}

// eachTap calls visit for every window tap in row-major order, or in
// reverse when desc, with the tap's index and its offsets from a run's
// origin in the plane (off) and in the unpadded sample (uoff).
//
// A kernel goes over a pass of runs tap by tap. Reversed, that keeps
// every plane element's contributions in ascending output-position
// order, which lets a scatter sum tap-major in the order the
// position-major loops did: for a fixed element a higher tap means a
// lower output position, one tap reaches it from at most one position,
// and passes go in ascending position order.
func (g *grid) eachTap(desc bool, visit func(ki, off, uoff int)) {
	last := len(g.in) - 1
	kw := g.win[last]
	outer := Volume(g.win) / kw // taps of every window dim but the last
	for i := 0; i < outer; i++ {
		ko := i
		if desc {
			ko = outer - 1 - i
		}
		off, uoff := g.offsets(ko, g.win, false)
		for j := 0; j < kw; j++ {
			t := j
			if desc {
				t = kw - 1 - j
			}
			visit(ko*kw+t, off+t, uoff+t)
		}
	}
}

// offsets returns the plane offset and the unpadded sample offset of
// multi-index i, row-major over dims[:last]: of output row i's window
// origin when window is true (index·stride − pad in sample
// coordinates), else of the first tap of outer kernel tap i.
func (g *grid) offsets(i int, dims []int, window bool) (base, u int) {
	last := len(g.in) - 1
	scale, uScale := g.in[last]+2*g.pad[last], g.in[last]
	if window {
		u = -g.pad[last]
	}
	for d := last - 1; d >= 0; d-- {
		idx := i
		if d > 0 {
			idx, i = i%dims[d], i/dims[d]
		}
		if window {
			idx *= g.stride[d]
			u -= g.pad[d] * uScale
		}
		base += idx * scale
		u += idx * uScale
		scale *= g.in[d] + 2*g.pad[d]
		uScale *= g.in[d]
	}
	return base, u
}

// border sets every border element of plane pl to v and leaves the
// interior alone. d is the dimension pl starts at.
func (g *grid) border(pl []float64, v float64, d int) {
	e, p := g.in[d], g.pad[d]
	ps := len(pl) / (e + 2*p) // 1 in the last dimension
	for _, edge := range [2][]float64{pl[:p*ps], pl[(p+e)*ps:]} {
		for i := range edge {
			edge[i] = v
		}
	}
	if d == len(g.in)-1 {
		return
	}
	for i := p; i < p+e; i++ {
		g.border(pl[i*ps:(i+1)*ps], v, d+1)
	}
}

// interior copies one channel between its plane pl and the unpadded
// sample x, a row at a time: into the plane when in is true, out of it
// otherwise. d is the dimension pl and x start at.
func (g *grid) interior(pl, x []float64, d int, in bool) {
	e := g.in[d]
	if e == 0 {
		return
	}
	ps := len(pl) / (e + 2*g.pad[d]) // 1 in the last dimension
	pl = pl[g.pad[d]*ps:]
	if d == len(g.in)-1 {
		if in {
			copy(pl[:e], x)
		} else {
			copy(x[:e], pl)
		}
		return
	}
	xs := len(x) / e
	for i := 0; i < e; i++ {
		g.interior(pl[i*ps:(i+1)*ps], x[i*xs:(i+1)*xs], d+1, in)
	}
}
