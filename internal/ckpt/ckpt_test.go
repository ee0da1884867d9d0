package ckpt_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"paradl/internal/ckpt"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// testState builds a two-layer snapshot with awkward float values
// (subnormals, negative zero, huge magnitudes) so round-trip equality
// is a real bit-identity check, not a pretty-printing coincidence.
func testState() *ckpt.State {
	w := tensor.FromSlice([]float64{0.1, -0.2, 0.3, 5e-324, math.Copysign(0, -1), 1e300}, 2, 3)
	b := tensor.FromSlice([]float64{-1.5, 2.5}, 2)
	gamma := tensor.FromSlice([]float64{1, 1, 0.999999999999}, 3)
	beta := tensor.FromSlice([]float64{0, -0.25, 1e-17}, 3)
	vw := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	vb := tensor.FromSlice([]float64{0.5, -0.5}, 2)
	return &ckpt.State{
		Model: "tinycnn-nobn", Plan: "df:4x2", Iter: 3, Seed: 42,
		LR: 0.05, Momentum: 0.9, Cursor: 3,
		Losses: []float64{2.302585092994046, 2.1, math.Pi},
		Params: []nn.Params{{W: w, B: b}, {Gamma: gamma, Beta: beta}},
		Vel:    []nn.Params{{W: vw, B: vb}, {}},
	}
}

func assertTensorEq(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil-ness mismatch (got %v, want %v)", name, got, want)
	}
	if got == nil {
		return
	}
	if !tensor.EqualShapes(got.Shape(), want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s[%d]: %v is not bit-identical to %v", name, i, gd[i], wd[i])
		}
	}
}

func assertStateEq(t *testing.T, got, want *ckpt.State) {
	t.Helper()
	if got.Model != want.Model || got.Plan != want.Plan || got.Iter != want.Iter ||
		got.Seed != want.Seed || got.Cursor != want.Cursor ||
		math.Float64bits(got.LR) != math.Float64bits(want.LR) ||
		math.Float64bits(got.Momentum) != math.Float64bits(want.Momentum) {
		t.Fatalf("metadata mismatch: got %+v, want %+v", got, want)
	}
	if len(got.Losses) != len(want.Losses) {
		t.Fatalf("%d losses, want %d", len(got.Losses), len(want.Losses))
	}
	for i := range want.Losses {
		if math.Float64bits(got.Losses[i]) != math.Float64bits(want.Losses[i]) {
			t.Fatalf("loss %d: %v not bit-identical to %v", i, got.Losses[i], want.Losses[i])
		}
	}
	if len(got.Params) != len(want.Params) {
		t.Fatalf("%d param layers, want %d", len(got.Params), len(want.Params))
	}
	for l := range want.Params {
		assertTensorEq(t, "param.W", got.Params[l].W, want.Params[l].W)
		assertTensorEq(t, "param.B", got.Params[l].B, want.Params[l].B)
		assertTensorEq(t, "param.Gamma", got.Params[l].Gamma, want.Params[l].Gamma)
		assertTensorEq(t, "param.Beta", got.Params[l].Beta, want.Params[l].Beta)
	}
	for l := range want.Vel {
		assertTensorEq(t, "vel.W", got.Vel[l].W, want.Vel[l].W)
		assertTensorEq(t, "vel.B", got.Vel[l].B, want.Vel[l].B)
	}
}

func TestCkptRoundTripBitIdentical(t *testing.T) {
	want := testState()
	enc, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ckpt.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	assertStateEq(t, got, want)
}

func TestCkptSaveLoadLatest(t *testing.T) {
	dir := t.TempDir()
	for _, iter := range []int{2, 10, 100} {
		s := testState()
		s.Iter = iter
		if _, err := ckpt.Save(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file (a crash mid-write) must be invisible to Latest.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-ckpt-dead"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	path, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != ckpt.FileName(100) {
		t.Fatalf("Latest picked %s, want %s", filepath.Base(path), ckpt.FileName(100))
	}
	got, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := testState()
	want.Iter = 100
	assertStateEq(t, got, want)

	if _, err := ckpt.Latest(t.TempDir()); err == nil {
		t.Fatal("Latest on an empty directory must error")
	}
}

// TestCkptCorruptionFailsLoudly is the crash-safety property test: a
// checkpoint truncated at any offset, with any byte flipped, or with
// garbage appended must fail Decode — never silently resume from torn
// state.
func TestCkptCorruptionFailsLoudly(t *testing.T) {
	enc, err := testState().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Decode(append([]byte(nil), enc...)); err != nil {
		t.Fatalf("pristine checkpoint must decode: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		b := append([]byte(nil), enc...)
		switch trial % 3 {
		case 0:
			b = b[:rng.Intn(len(b))]
		case 1:
			b[rng.Intn(len(b))]++
		case 2:
			extra := make([]byte, 1+rng.Intn(16))
			rng.Read(extra)
			b = append(b, extra...)
		}
		if _, err := ckpt.Decode(b); err == nil {
			t.Fatalf("trial %d (mode %d): corrupted checkpoint decoded without error", trial, trial%3)
		}
	}
}

// reseal is ResealForTest, failing t on a malformed encoding.
func reseal(t *testing.T, enc []byte, edit func(h map[string]any)) []byte {
	t.Helper()
	b, err := ckpt.ResealForTest(enc, edit)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCkptDecodeRejectsCraftedHeaders: a SHA-256 trailer is not a MAC,
// so the header's counts are outside input. Every crafted header below
// is re-sealed with a valid trailer and must decode to an error — never
// a panic, an allocation the file does not back, or a tensor whose
// shape outgrows its values.
func TestCkptDecodeRejectsCraftedHeaders(t *testing.T) {
	enc, err := testState().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Decode(reseal(t, enc, func(map[string]any) {})); err != nil {
		t.Fatalf("re-sealed unchanged header must decode: %v", err)
	}
	addEntry := func(shape ...int) func(h map[string]any) {
		return func(h map[string]any) {
			h["dir"] = append(h["dir"].([]any), map[string]any{"l": 0, "f": "Gamma", "k": "param", "shape": shape})
		}
	}
	for name, edit := range map[string]func(h map[string]any){
		"negative nlayers":             func(h map[string]any) { h["nlayers"] = -1 },
		"nlayers past the bound":       func(h map[string]any) { h["nlayers"] = 1<<16 + 1 },
		"huge nlayers":                 func(h map[string]any) { h["nlayers"] = 1 << 50 },
		"negative nlosses":             func(h map[string]any) { h["nlosses"] = -1 },
		"nlosses past the payload":     func(h map[string]any) { h["nlosses"] = 1 << 60 },
		"shape product wraps to zero":  addEntry(1<<32, 1<<32),
		"3-d shape product wraps":      addEntry(1<<21, 1<<21, 1<<22),
		"shape larger than payload":    addEntry(1 << 20),
		"negative dimension":           addEntry(-2, 3),
		"directory layer out of range": func(h map[string]any) { h["dir"].([]any)[0].(map[string]any)["l"] = 7 },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked: %v", r)
				}
			}()
			if _, err := ckpt.Decode(reseal(t, enc, edit)); err == nil {
				t.Fatal("crafted header decoded without error")
			}
		})
	}
}

func TestCkptLoadRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s := testState()
	path, err := ckpt.Save(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Load(path); err == nil {
		t.Fatal("Load accepted a corrupted checkpoint file")
	}
}
