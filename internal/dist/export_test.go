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
