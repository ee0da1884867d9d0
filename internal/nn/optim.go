package nn

import "paradl/internal/tensor"

// Momentum is heavy-ball SGD: v ← µ·v + g, w ← w − lr·v — the
// one-extra-variable-per-weight point of the §5.3.3 weight-update
// analysis. The paper's weight-update phase (WU) depends on the
// optimizer: plain SGD touches 2 variables per weight, momentum 3, ADAM
// four — which is why large models "report up to 45% time on weight
// update and more than 60% extra memory" under ADAM (§5.3.3). The oracle
// prices ADAM from profile.AdamSpec; the runtime trains with SGD
// (tensor.SGDStep) and momentum.
//
// Velocities are keyed by parameter-tensor identity, so it works on
// full replicas and on parameter shards alike (a shard's velocity is the
// matching slice of the global velocity).
type Momentum struct {
	LR, Mu float64

	vel map[*tensor.Tensor]*tensor.Tensor
}

// NewMomentum returns a heavy-ball SGD optimizer.
func NewMomentum(lr, mu float64) *Momentum {
	return &Momentum{LR: lr, Mu: mu, vel: map[*tensor.Tensor]*tensor.Tensor{}}
}

// Velocity returns the velocity tensor of parameter w, or nil if no
// update has touched w yet — an absent velocity is semantically a zero
// tensor (Update creates it lazily). Checkpointing uses this to export
// the optimizer state alongside the parameters.
func (m *Momentum) Velocity(w *tensor.Tensor) *tensor.Tensor {
	if m.vel == nil {
		return nil
	}
	return m.vel[w]
}

// SeedVelocity installs v as parameter w's velocity, replacing any
// existing one. Restore paths use it to rebuild the optimizer state a
// checkpoint recorded, so a resumed run continues the exact heavy-ball
// trajectory of the original.
func (m *Momentum) SeedVelocity(w, v *tensor.Tensor) {
	if m.vel == nil {
		m.vel = map[*tensor.Tensor]*tensor.Tensor{}
	}
	m.vel[w] = v
}

// Update applies the momentum update to one (param, grad) pair — whole
// parameters and the parameter slices sharded runtimes (internal/dist)
// step alike. g must have w's shape.
func (m *Momentum) Update(w, g *tensor.Tensor) {
	if m.vel == nil {
		m.vel = map[*tensor.Tensor]*tensor.Tensor{}
	}
	v, ok := m.vel[w]
	if !ok {
		v = tensor.New(w.Shape()...)
		m.vel[w] = v
	}
	m.UpdateWith(v, w, g)
}

// UpdateWith is Update against a velocity the caller holds itself. It
// touches nothing but its three operands, so calls on disjoint tensors
// may run concurrently (internal/dist steps chunks from worker goroutines).
func (m *Momentum) UpdateWith(v, w, g *tensor.Tensor) {
	w.MustSameShape(g)
	w.MustSameShape(v)
	wd, gd, vd := w.Data(), g.Data(), v.Data()
	for i := range wd {
		vd[i] = m.Mu*vd[i] + gd[i]
		wd[i] -= m.LR * vd[i]
	}
}
