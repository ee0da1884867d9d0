// Package nn describes CNN models at the level the ParaDL oracle needs:
// an ordered list of G layers with exact tensor geometry per layer. From
// the geometry the package derives the per-layer quantities of the
// paper's Table 2/3 — |x_l|, |y_l|, |w_l|, |bi_l| (all per sample where
// applicable) — and FLOP counts for the compute-side parametrization.
//
// The same specs can be instantiated into an executable Network
// (exec.go) whose forward/backward run real numbers through
// internal/tensor, which is how the distributed runtime validates every
// parallel strategy value-by-value against the sequential baseline.
// Execution follows the compiled graph (graph.go): chain models walk
// the degenerate DAG bit-identically, and Branch/shortcut layers run
// for real — tap read, additive merge, fan-out backward.
package nn

import (
	"fmt"

	"paradl/internal/tensor"
)

// LayerKind enumerates the layer types found in production CNNs that the
// paper's analysis covers (§4.2 "all types of layers used in production
// CNNs").
type LayerKind int

const (
	// Conv is an N-spatial-dimensional convolution.
	Conv LayerKind = iota
	// Pool is max or average pooling (channel-wise, no weights).
	Pool
	// FC is a fully-connected layer; in the paper's notation a
	// convolution whose kernel equals the input extent.
	FC
	// ReLU is the element-wise rectifier (no weights, F = C).
	ReLU
	// BatchNorm is channel-wise normalization with scale/shift weights.
	BatchNorm
)

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case Pool:
		return "pool"
	case FC:
		return "fc"
	case ReLU:
		return "relu"
	case BatchNorm:
		return "bn"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// Layer is the static description of one layer: its geometry and
// derived sizes. Spatial extents are stored explicitly so the spec
// doubles as the shape-inference record.
type Layer struct {
	Kind LayerKind
	Name string

	// C and F are input and output channel counts. For channel-wise
	// layers (Pool, ReLU, BatchNorm) F == C.
	C, F int

	// In and Out are the input/output spatial extents (e.g. [H, W] or
	// [D, H, W]). For FC layers Out is all-ones.
	In, Out []int

	// Kernel, Stride, Pad describe Conv/Pool windows; nil otherwise
	// (FC implicitly uses Kernel == In).
	Kernel, Stride, Pad []int

	// PoolKind selects max vs average pooling for Pool layers.
	PoolKind tensor.PoolKind

	// Branch marks a layer whose input is taken from an earlier point of
	// the network (e.g. a ResNet shortcut/downsample convolution) and
	// whose output merges additively into the main path. Branch layers
	// participate fully in the size/FLOP accounting but are exempt from
	// chain-continuity validation; instead their OUTPUT must match the
	// preceding layer's output so the merge is well-formed. Branch
	// layers are executable: CompileGraph routes their input from the
	// tap point and adds their output into the main path.
	Branch bool

	// Tap is the index of the layer whose (post-merge) output feeds this
	// Branch layer, with -1 meaning the network input. It is meaningful
	// only when Branch is set (the Builder records it from the most
	// recent Snapshot call) and is validated against the branch's C/In
	// geometry by Model.Validate.
	Tap int
}

// SpatialRank returns the number of spatial dimensions.
func (l *Layer) SpatialRank() int { return len(l.In) }

// InSize returns |x_l|: elements of the layer input for ONE sample.
func (l *Layer) InSize() int64 {
	return int64(l.C) * volume(l.In)
}

// OutSize returns |y_l|: elements of the layer output for ONE sample.
func (l *Layer) OutSize() int64 {
	return int64(l.F) * volume(l.Out)
}

// WeightSize returns |w_l|: weight elements of the layer.
//
//   - Conv: C·F·∏K
//   - FC:   C·F·∏In (kernel = input size, paper §2.2)
//   - BatchNorm: 2·C (gamma and beta; they ride the gradient exchange)
//   - Pool/ReLU: 0 (the paper writes w[C, F, 0])
func (l *Layer) WeightSize() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.C) * int64(l.F) * volume(l.Kernel)
	case FC:
		return int64(l.C) * int64(l.F) * volume(l.In)
	case BatchNorm:
		return 2 * int64(l.C)
	default:
		return 0
	}
}

// BiasSize returns |bi_l|: bias elements (F for weighted layers).
func (l *Layer) BiasSize() int64 {
	switch l.Kind {
	case Conv, FC:
		return int64(l.F)
	default:
		return 0
	}
}

// FwdFLOPs estimates multiply-add FLOPs of the forward pass for ONE
// sample (2 FLOPs per MAC).
func (l *Layer) FwdFLOPs() int64 {
	switch l.Kind {
	case Conv:
		return 2 * l.OutSize() * int64(l.C) * volume(l.Kernel)
	case FC:
		return 2 * int64(l.F) * l.InSize()
	case Pool:
		return l.OutSize() * volume(l.Kernel)
	case ReLU:
		return l.OutSize()
	case BatchNorm:
		return 4 * l.InSize() // two reduction passes + normalize + affine
	default:
		return 0
	}
}

// BwdFLOPs estimates backward-pass FLOPs for ONE sample. Convolutional
// and FC layers pay roughly twice the forward cost (backward-data plus
// backward-weight); channel-wise layers pay about the forward cost.
func (l *Layer) BwdFLOPs() int64 {
	switch l.Kind {
	case Conv, FC:
		return 2 * l.FwdFLOPs()
	default:
		return l.FwdFLOPs()
	}
}

// WUFLOPs estimates weight-update FLOPs per iteration (one SGD axpy per
// parameter).
func (l *Layer) WUFLOPs() int64 {
	return 2 * (l.WeightSize() + l.BiasSize())
}

// HaloSize returns halo(|x_l|): elements exchanged per sample with
// logical neighbours when the layer's spatial domain is decomposed
// across parts PEs along the given axis (0 = first spatial dim). Only
// Conv/Pool layers with kernels wider than their stride need halos. The
// estimate follows the paper: K/2 rows (or columns/planes) of the input
// cross each internal partition boundary, in both directions.
func (l *Layer) HaloSize(axis, parts int) int64 {
	if parts <= 1 {
		return 0
	}
	if l.Kind != Conv && l.Kind != Pool {
		return 0
	}
	if axis < 0 || axis >= len(l.In) {
		return 0
	}
	k := l.Kernel[axis]
	if k <= 1 || k <= l.Stride[axis] {
		return 0 // stride consumes the window; no remote rows needed
	}
	rows := int64(k / 2)
	// cross-section: channels × product of the other spatial extents
	cross := int64(l.C)
	for i, e := range l.In {
		if i != axis {
			cross *= int64(e)
		}
	}
	return rows * cross
}

// HaloSizeOut returns halo(|dL/dy_l|): the activation-gradient elements
// exchanged per sample in the backward pass under the same spatial
// decomposition — K/2 planes of the OUTPUT geometry (F channels over
// the output cross-section).
func (l *Layer) HaloSizeOut(axis, parts int) int64 {
	if parts <= 1 {
		return 0
	}
	if l.Kind != Conv && l.Kind != Pool {
		return 0
	}
	if axis < 0 || axis >= len(l.Out) {
		return 0
	}
	k := l.Kernel[axis]
	if k <= 1 || k <= l.Stride[axis] {
		return 0
	}
	rows := int64(k / 2)
	cross := int64(l.F)
	for i, e := range l.Out {
		if i != axis {
			cross *= int64(e)
		}
	}
	return rows * cross
}

// Validate performs internal-consistency checks on the layer geometry
// and returns a descriptive error for the first violation found.
func (l *Layer) Validate() error {
	if l.C <= 0 || l.F <= 0 {
		return fmt.Errorf("nn: layer %q has non-positive channels C=%d F=%d", l.Name, l.C, l.F)
	}
	if len(l.In) == 0 && l.Kind != FC {
		return fmt.Errorf("nn: layer %q has no spatial extent", l.Name)
	}
	switch l.Kind {
	case Conv, Pool:
		if len(l.Kernel) != len(l.In) || len(l.Stride) != len(l.In) || len(l.Pad) != len(l.In) {
			return fmt.Errorf("nn: layer %q kernel/stride/pad rank mismatch", l.Name)
		}
		for i := range l.In {
			switch {
			case l.Stride[i] <= 0:
				return fmt.Errorf("nn: layer %q dim %d: stride %d is not positive", l.Name, i, l.Stride[i])
			case l.Pad[i] < 0:
				return fmt.Errorf("nn: layer %q dim %d: pad %d is negative", l.Name, i, l.Pad[i])
			case l.Kernel[i] < 1:
				return fmt.Errorf("nn: layer %q dim %d: kernel %d is not positive", l.Name, i, l.Kernel[i])
			case l.Kernel[i] > l.In[i]+2*l.Pad[i]:
				return fmt.Errorf("nn: layer %q dim %d: kernel %d larger than padded input %d", l.Name, i, l.Kernel[i], l.In[i]+2*l.Pad[i])
			}
			want := tensor.ConvOutSize(l.In[i], l.Kernel[i], l.Stride[i], l.Pad[i])
			if l.Out[i] != want {
				return fmt.Errorf("nn: layer %q dim %d: out %d, want %d", l.Name, i, l.Out[i], want)
			}
		}
	case ReLU, BatchNorm:
		if l.F != l.C {
			return fmt.Errorf("nn: channel-wise layer %q must have F==C", l.Name)
		}
		if !tensor.EqualShapes(l.In, l.Out) {
			return fmt.Errorf("nn: channel-wise layer %q must preserve spatial extent", l.Name)
		}
	case FC:
		for _, e := range l.Out {
			if e != 1 {
				return fmt.Errorf("nn: fc layer %q must have all-ones output extent", l.Name)
			}
		}
	}
	return nil
}

func volume(dims []int) int64 {
	v := int64(1)
	for _, d := range dims {
		v *= int64(d)
	}
	return v
}
