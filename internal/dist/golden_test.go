package dist_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
)

// lossBitsGolden holds the loss bits TestLossBitsGolden pins.
var lossBitsGolden = filepath.Join("testdata", "loss_bits.txt")

// lossBits returns one line per (model, plan shape, momentum): the %x
// bits of every iteration's loss, or "infeasible" for a plan the model
// rejects before any PE starts.
func lossBits(t *testing.T) []string {
	models := []*nn.Model{model.TinyCNNNoBN(), model.TinyResNet(), model.Tiny3D(), model.TinyCNN(), wide2D()}
	var lines []string
	for _, m := range models {
		batches := varBatches(m, 8, 8, 6, 8)
		for _, ps := range planShapes {
			for _, mu := range []float64{0, 0.9} {
				line := fmt.Sprintf("%s %s momentum=%g:", m.Name, ps, mu)
				res, err := dist.Run(m, batches, mustPlan(t, ps), dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(mu))
				var inf *dist.InfeasibleError
				switch {
				case errors.As(err, &inf):
					line += " infeasible"
				case err != nil:
					t.Fatalf("%s: %v", line, err)
				default:
					for _, v := range res.Losses {
						line += fmt.Sprintf(" %x", math.Float64bits(v))
					}
				}
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// Every engine's losses are pinned bit for bit: the five models × the
// fourteen plan shapes × momentum 0 and 0.9, over batches of 8, 8, 6
// and 8 (so every frame reallocates on a shape change and back). A
// change that means to keep the arithmetic — a buffer reused, a kernel
// rewritten, a collective rewired — must leave every line as it is.
//
// To regenerate the file after a change that moves the bits on purpose,
// delete testdata/loss_bits.txt and run
//
//	go test ./internal/dist -run TestLossBitsGolden
//
// which writes it afresh and fails once; review the diff and commit it.
// Off amd64 the test skips: the compiler may fuse a multiply and an add
// there, and a fused result rounds differently.
func TestLossBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("loss bits are pinned on amd64 only, this is %s", runtime.GOARCH)
	}
	got := lossBits(t)
	raw, err := os.ReadFile(lossBitsGolden)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(lossBitsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lossBitsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d lines); review and commit it", lossBitsGolden, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d lines, %s has %d", len(got), lossBitsGolden, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
