package nn

import (
	"fmt"
	"testing"
)

func TestHaloSizeOutGeometry(t *testing.T) {
	m := smallModel(t)
	conv1 := m.Layers[0] // 3×3 stride 1, C=3→F=4, 8×8
	// Output halo: K/2 = 1 row of F × outW = 4×8.
	if h := conv1.HaloSizeOut(0, 2); h != 32 {
		t.Fatalf("halo out = %d, want 32", h)
	}
	if conv1.HaloSizeOut(0, 1) != 0 {
		t.Fatal("no halo at p=1")
	}
	if conv1.HaloSizeOut(5, 2) != 0 {
		t.Fatal("invalid axis yields zero")
	}
	relu := m.Layers[2]
	if relu.HaloSizeOut(0, 2) != 0 {
		t.Fatal("channel-wise layers need no halo")
	}
}

func TestHaloZeroWhenStrideConsumesKernel(t *testing.T) {
	// A 2×2/2 pool never reaches across partition boundaries.
	b := NewBuilder("x", 1, []int{8, 8})
	b.Pool(MaxPool, 2, 2, 0)
	m := b.m
	if m.Layers[0].HaloSize(0, 2) != 0 || m.Layers[0].HaloSizeOut(0, 2) != 0 {
		t.Fatal("non-overlapping windows need no halo")
	}
	// A 3×3/2 pool (ResNet stem) DOES need one.
	b2 := NewBuilder("y", 1, []int{9, 9})
	b2.Pool(MaxPool, 3, 2, 0)
	if b2.m.Layers[0].HaloSize(0, 2) == 0 {
		t.Fatal("overlapping pool windows need halo rows")
	}
}

func TestValidateErrorBranches(t *testing.T) {
	bad := Layer{Kind: Conv, Name: "bad", C: 0, F: 4, In: []int{4, 4}, Out: []int{4, 4},
		Kernel: []int{3, 3}, Stride: []int{1, 1}, Pad: []int{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("C=0 must fail")
	}
	bad2 := Layer{Kind: ReLU, Name: "bad2", C: 4, F: 8, In: []int{4}, Out: []int{4}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("channel-wise with F≠C must fail")
	}
	bad3 := Layer{Kind: FC, Name: "bad3", C: 4, F: 8, In: []int{4}, Out: []int{2}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("FC with non-unit output extent must fail")
	}
	bad4 := Layer{Kind: Conv, Name: "bad4", C: 1, F: 1, In: []int{4, 4}, Out: []int{4, 4},
		Kernel: []int{3}, Stride: []int{1}, Pad: []int{1}}
	if err := bad4.Validate(); err == nil {
		t.Fatal("kernel rank mismatch must fail")
	}
}

// Degenerate window geometry is an error, not a panic from the tensor
// package's size arithmetic: a stride of 0 used to panic inside
// Validate, and a negative pad or an empty kernel passed as long as Out
// matched the arithmetic.
func TestValidateRejectsDegenerateGeometry(t *testing.T) {
	for _, c := range []struct {
		name                string
		in, out             int
		kernel, stride, pad int
	}{
		{"stride 0", 5, 3, 3, 0, 0},
		{"negative stride", 5, 3, 3, -1, 0},
		{"negative pad", 5, 1, 3, 1, -1},
		{"kernel 0", 5, 6, 0, 1, 0},
		{"kernel beyond padded input", 2, 1, 5, 1, 1},
	} {
		for _, kind := range []LayerKind{Conv, Pool} {
			l := Layer{Kind: kind, Name: c.name, C: 2, F: 2, In: []int{c.in}, Out: []int{c.out},
				Kernel: []int{c.kernel}, Stride: []int{c.stride}, Pad: []int{c.pad}}
			t.Run(fmt.Sprintf("%s/%v", c.name, kind), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Validate panicked: %v", r)
					}
				}()
				if err := l.Validate(); err == nil {
					t.Fatal("Validate accepted the layer")
				}
			})
		}
	}
}

func TestBreakLayerChainOnSpatial(t *testing.T) {
	m := smallModel(t)
	m.Layers[2].In[0] = 7 // relu claims different extent than conv output
	m.Layers[2].Out[0] = 7
	if err := m.Validate(); err == nil {
		t.Fatal("spatial discontinuity must be rejected")
	}
}
