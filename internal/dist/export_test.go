package dist

import (
	"paradl/internal/core"
	"paradl/internal/nn"
)

// RegistryStrategiesForTest returns the registry's key set (unordered)
// so the invariant test can pin Strategies() against it.
func RegistryStrategiesForTest() []core.Strategy {
	out := make([]core.Strategy, 0, len(registry))
	for s := range registry {
		out = append(out, s)
	}
	return out
}

// ScatterableForTest exposes the footnote-2 eligibility analysis so the
// parity tests can assert the reduce-scatter path actually triggers.
func ScatterableForTest(m *nn.Model, p2 int) []bool {
	cfg := defaultConfig()
	return scatterableInputGrads(m, p2, &cfg)
}

// FCNetShapedForTest builds the bench-fcnet shape at test scale: one FC
// weight of width KiB (128 inputs × width outputs) — at 320 above even
// the default 256 KiB bucket, so it is exchanged alone and updated
// inside the ring — among tiny conv, bias and classifier gradients.
func FCNetShapedForTest(width, classes int) *nn.Model {
	b := nn.NewBuilder("fcnet-shaped", 4, []int{8, 8})
	b.Conv(8, 3, 1, 1).ReLU()
	b.Pool(nn.MaxPool, 2, 2, 0)
	b.FC(width).ReLU()
	b.FC(classes)
	return b.MustBuild()
}

// DrawMissesForTest returns how many initial-parameter draws this
// process has made: the misses of the memo every replica copies from.
func DrawMissesForTest() int {
	draws.Lock()
	defer draws.Unlock()
	return draws.misses
}

// DrawnParamsForTest returns the memo's current draw (nil before the
// first), the parameters every replica of its key copies.
func DrawnParamsForTest() []nn.Params {
	draws.Lock()
	defer draws.Unlock()
	return draws.params
}

// DrawKeyForTest returns the memo key a run of m at seed draws under.
func DrawKeyForTest(m *nn.Model, seed int64) []int64 { return drawKey(m, seed) }
