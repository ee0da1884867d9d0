package strategy

import (
	"fmt"

	"paradl/internal/nn"
)

// Family is one row of Table 3, written on the P1×P2 grid the runtime
// runs it on (§3.6): P1 data-parallel groups of P2 model-parallel PEs.
// The pure strategies are the grid's edges, serial its 1×1 corner.
type Family uint8

const (
	// Tensor is data × filter/channel (eq. 5–7, 15–22): data parallelism
	// is its P2=1 edge, filter and channel parallelism its P1=1 edge.
	Tensor Family = iota
	// Spatial is data × spatial (eq. 8–10, §4.5.1).
	Spatial
	// Pipeline is data × pipeline (eq. 12–13 inside every group; the
	// §3.6 composition Table 3 has no entry for).
	Pipeline
)

// Grid is the normalised geometry one Table-3 row is evaluated at. The
// oracle (core.Project) prices it in closed form, the simulator
// (measure.Measure) on simnet; both obtain it from core.Grid.
type Grid struct {
	Family Family
	P1, P2 int
	// B is the global mini-batch, S the pipeline segment count.
	B, S int
	// Model and Delta (bytes per item, δ) size the messages.
	Model *nn.Model
	Delta float64
	// Channel makes the Tensor row split input channels (min C limit,
	// one more rearrangement pass) instead of filters.
	Channel bool
	// Hierarchical makes the Spatial row exchange gradients through the
	// group leaders (§5.3.1) instead of one flat ring.
	Hierarchical bool
	// Whole deals whole samples, as the simulator and the runtime do:
	// ⌊B/P1⌋ per group, ⌊·/S⌋ per micro-batch. Table 3 divides B as a
	// real number, which is what the oracle keeps.
	Whole bool
	// Stages is the Pipeline row's layer partition — each pricer passes
	// its own (the oracle balances profiled times, the simulator device
	// times at the micro-batch).
	Stages []Range
}

// Shares are a row's per-PE divisors of Table 3's compute and memory
// columns.
type Shares struct {
	// Batch divides the batch dimension of every activation, Act the
	// activation itself (the spatial split; Table 3 writes it with the
	// batch as one 1/p), Weight the weights, their gradients and the
	// weight update.
	Batch, Act, Weight float64
	// Kernel is the fraction of each layer's kernel one PE computes.
	Kernel float64
	// ReplicatedHead marks the FC head as computed whole on every PE
	// (§4.5.1).
	ReplicatedHead bool
}

// Shares returns the row's divisors at this geometry.
func (g *Grid) Shares() Shares {
	p1, p2 := float64(g.P1), float64(g.P2)
	switch g.Family {
	case Tensor:
		return Shares{Batch: p1, Act: 1, Weight: p2, Kernel: 1 / p2}
	case Spatial:
		return Shares{Batch: 1, Act: float64(g.P1 * g.P2), Weight: 1, Kernel: 1 / p2, ReplicatedHead: true}
	default:
		return Shares{Batch: p1, Act: 1, Weight: 1, Kernel: 1}
	}
}

// GroupBatch is the samples one data-parallel group processes per
// iteration, ⌊B/P1⌋ and at least one (Limits reports B < P1).
func (g *Grid) GroupBatch() int { return max(1, g.B/g.P1) }

// MicroBatch is the samples per pipeline micro-batch of one group.
func (g *Grid) MicroBatch() float64 {
	if g.Whole {
		return float64(max(1, g.GroupBatch()/g.S))
	}
	return float64(g.GroupBatch()) / float64(g.S)
}

// Limit is a violated scaling limit of Table 3's last column.
type Limit struct {
	// Name is "batch" on the data axis, else the model extent that
	// bounds the model axis: "filter", "channel", "spatial" or "stage".
	Name string
	// Width is the offending axis width (P1 for "batch", else P2) and
	// Max the largest width the limit admits.
	Width, Max int
}

func (l *Limit) Error() string {
	switch l.Name {
	case "batch":
		return fmt.Sprintf("P1=%d exceeds the batch B=%d (every data-parallel group needs a sample)", l.Width, l.Max)
	case "stage":
		return fmt.Sprintf("P2=%d exceeds the G=%d stage limit", l.Width, l.Max)
	}
	return fmt.Sprintf("P2=%d exceeds %s limit %d", l.Width, l.Name, l.Max)
}

// ModelLimit returns the model-axis limit by name: min F or min C on
// the Tensor row, the minimum spatial extent on the Spatial row, the
// layer count G on the Pipeline row.
func (g *Grid) ModelLimit() (name string, limit int) {
	switch {
	case g.Family == Spatial:
		return "spatial", g.Model.MinSpatial()
	case g.Family == Pipeline:
		return "stage", g.Model.G()
	case g.Channel:
		return "channel", g.Model.MinChannels()
	}
	return "filter", g.Model.MinFilters()
}

// Limits returns the binding limit the geometry violates, or nil: the
// model axis needs P2 ≤ ModelLimit, the data axis B ≥ P1.
func (g *Grid) Limits() *Limit {
	if g.P2 > 1 {
		if name, limit := g.ModelLimit(); g.P2 > limit {
			return &Limit{Name: name, Width: g.P2, Max: limit}
		}
	}
	if g.B < g.P1 {
		return &Limit{Name: "batch", Width: g.P1, Max: g.B}
	}
	return nil
}

// Phase is the training phase (§2.1.1) an exchange is accounted to.
type Phase uint8

const (
	PhaseGE     Phase = iota // gradient exchange
	PhaseFB                  // layer-wise forward/backward collectives
	PhaseHalo                // spatial neighbour exchange
	PhaseP2P                 // pipeline stage-to-stage activations
	PhaseGather              // activation gather before the replicated head
)

// Kind is the communication pattern of an exchange. Bytes means the
// full buffer for RingAllreduce and the trees, the per-PE chunk for
// RingAllgather and RingBoundary, the one-way payload for Halo and P2P.
type Kind uint8

const (
	RingAllreduce Kind = iota // 2(p−1) rounds of Bytes/p
	RingAllgather             // p−1 rounds of Bytes
	// RingBoundary is a filter/channel layer boundary: an Allgather one
	// way and an Allreduce back, Table 3's 3(p−1) rounds of Bytes.
	RingBoundary
	Halo       // bidirectional neighbour swap
	P2P        // one transfer First → First+Stride
	TreeReduce // binomial tree to First
	TreeBcast  // binomial tree from First
)

// Exchange is one communication of an iteration. Its group is the PEs
// First, First+Stride, …, Size of them.
type Exchange struct {
	Phase               Phase
	Kind                Kind
	First, Size, Stride int
	// Span is the contiguous PE range whose α/β level the exchange
	// crosses (§4.4); MPI selects the host-staged path (§5.1).
	Span int
	MPI  bool
	// Bytes per occurrence (see Kind); Repeat occurrences per iteration.
	Bytes  float64
	Repeat int
	// Segment k of Segments exchanges run concurrently (the segmented
	// gradient exchange): they share links — φ in closed form, flow
	// contention on simnet — and the slowest counts.
	Segment, Segments int
	// InTable3 is false for traffic the paper's model has no term for;
	// the oracle skips it, the simulator runs it.
	InTable3 bool
}

// PEs lists the exchange's group.
func (x Exchange) PEs() []int {
	pes := make([]int, x.Size)
	for i := range pes {
		pes[i] = x.First + i*x.Stride
	}
	return pes
}

// Exchanges yields the row's communication for one iteration, in
// execution order, without materialising it: usable as
// "for x := range g.Exchanges".
func (g *Grid) Exchanges(yield func(Exchange) bool) {
	p := g.P1 * g.P2
	layers := g.Model.Layers
	batch := float64(g.GroupBatch())
	// in-group and cross-group templates
	in := Exchange{Size: g.P2, Stride: 1, Span: g.P2, Repeat: 1, Segments: 1, InTable3: true}
	cross := Exchange{Phase: PhaseGE, Kind: RingAllreduce, Size: g.P1, Stride: g.P2, Span: p, Repeat: 1, Segments: g.P2, InTable3: true}
	weights := float64(g.Model.TotalWeights()) * g.Delta

	switch g.Family {
	case Tensor:
		if g.P2 > 1 {
			// Chunk B|y_l|/p: the group's batch share over its P2 PEs.
			num, den := float64(g.B), float64(p)
			if g.Whole {
				num, den = batch, float64(g.P2)
			}
			in.Phase, in.Kind = PhaseFB, RingBoundary
			for i := 0; i < len(layers)-1; i++ {
				in.Bytes = num * float64(layers[i].OutSize()) / den * g.Delta
				if !yield(in) {
					return
				}
			}
		}
		// Segmented exchange: one ring per weight shard over the groups.
		cross.Bytes = weights / float64(g.P2)
		for k := 0; g.P1 > 1 && k < g.P2; k++ {
			cross.First, cross.Segment = k, k
			if !yield(cross) {
				return
			}
		}

	case Spatial:
		in.Phase, in.Kind, in.MPI = PhaseHalo, Halo, true
		var trunk *nn.Layer
		for i := range layers {
			l := &layers[i]
			if l.Kind != nn.FC {
				trunk = l
			}
			if halo := l.HaloSize(0, g.P2) + l.HaloSizeOut(0, g.P2); halo > 0 {
				in.Bytes = batch * float64(halo) * g.Delta
				if !yield(in) {
					return
				}
			}
		}
		if trunk != nil && g.P2 > 1 {
			// Allgatherv of the trunk output before the replicated head
			// (over MPI: NCCL lacks Allgatherv, §5.1) — not in Table 3.
			in.Phase, in.Kind, in.InTable3 = PhaseGather, RingAllgather, false
			in.Bytes = batch * float64(trunk.OutSize()) / float64(g.P2) * g.Delta
			if !yield(in) {
				return
			}
		}
		if p == 1 {
			return
		}
		cross.Bytes, cross.Segments = weights, 1
		if !g.Hierarchical {
			cross.Size, cross.Stride = p, 1
			yield(cross)
			return
		}
		// Tree-reduce to the group leader, ring among the P1 leaders,
		// tree-broadcast back: the local phases move the FULL buffer,
		// which is why ds gradient exchange costs >2× plain data.
		tree := Exchange{Phase: PhaseGE, Kind: TreeReduce, Size: g.P2, Stride: 1, Span: g.P2, Bytes: weights, Repeat: 1, Segments: 1, InTable3: true}
		if !yield(tree) || !yield(cross) {
			return
		}
		tree.Kind = TreeBcast
		yield(tree)

	case Pipeline:
		// 2(p+S−2) hops of the largest stage-boundary micro-batch, eq. 13.
		boundary := int64(0)
		for _, st := range g.Stages[:len(g.Stages)-1] {
			boundary = max(boundary, layers[st.End-1].OutSize())
		}
		in.Phase, in.Kind, in.Size, in.Repeat = PhaseP2P, P2P, min(2, g.P2), 2*(g.P2+g.S-2)
		in.Bytes = g.MicroBatch() * float64(boundary) * g.Delta
		if !yield(in) {
			return
		}
		// Stage k of every group owns the same layers: one ring per
		// stage's weights over the groups, all P2 at once.
		for k := 0; g.P1 > 1 && k < g.P2; k++ {
			w := int64(0)
			if k < len(g.Stages) {
				for l := g.Stages[k].Start; l < g.Stages[k].End; l++ {
					w += layers[l].WeightSize()
				}
			}
			cross.First, cross.Segment, cross.Bytes = k, k, float64(w)*g.Delta
			if !yield(cross) {
				return
			}
		}
	}
}
