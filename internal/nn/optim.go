package nn

import "paradl/internal/tensor"

// Optimizer updates network parameters from gradients. The paper's
// weight-update phase (WU) analysis depends on the optimizer: plain SGD
// touches 2 variables per weight, momentum 3, ADAM four — which is why
// large models "report up to 45% time on weight update and more than
// 60% extra memory" under ADAM (§5.3.3). The oracle prices ADAM from
// profile.AdamSpec; the runtime trains with SGD and momentum.
type Optimizer interface {
	// Step applies one update.
	Step(params []Params, grads []Grads)
	// Name identifies the optimizer for reports.
	Name() string
	// ExtraStatePerParam is the number of persistent state variables
	// per parameter beyond the weight itself (SGD 0, momentum 1).
	ExtraStatePerParam() int
}

// SGD is plain stochastic gradient descent.
type SGD struct {
	LR float64
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// ExtraStatePerParam implements Optimizer.
func (s *SGD) ExtraStatePerParam() int { return 0 }

// Step implements Optimizer.
func (s *SGD) Step(params []Params, grads []Grads) {
	for l := range params {
		applyPair(params[l].W, grads[l].W, func(w, g *tensor.Tensor) { tensor.SGDStep(w, g, s.LR) })
		applyPair(params[l].B, grads[l].B, func(w, g *tensor.Tensor) { tensor.SGDStep(w, g, s.LR) })
		applyPair(params[l].Gamma, grads[l].Gamma, func(w, g *tensor.Tensor) { tensor.SGDStep(w, g, s.LR) })
		applyPair(params[l].Beta, grads[l].Beta, func(w, g *tensor.Tensor) { tensor.SGDStep(w, g, s.LR) })
	}
}

// Momentum is heavy-ball SGD: v ← µ·v + g, w ← w − lr·v — the
// one-extra-variable-per-weight point of the §5.3.3 weight-update
// analysis. Velocities are keyed by parameter-tensor identity, so it
// works on full replicas and on parameter shards alike (a shard's
// velocity is the matching slice of the global velocity).
type Momentum struct {
	LR, Mu float64

	vel map[*tensor.Tensor]*tensor.Tensor
}

// NewMomentum returns a heavy-ball SGD optimizer.
func NewMomentum(lr, mu float64) *Momentum {
	return &Momentum{LR: lr, Mu: mu, vel: map[*tensor.Tensor]*tensor.Tensor{}}
}

// Name implements Optimizer.
func (m *Momentum) Name() string { return "momentum" }

// ExtraStatePerParam implements Optimizer.
func (m *Momentum) ExtraStatePerParam() int { return 1 }

// Step implements Optimizer.
func (m *Momentum) Step(params []Params, grads []Grads) {
	for l := range params {
		applyPair(params[l].W, grads[l].W, m.Update)
		applyPair(params[l].B, grads[l].B, m.Update)
		applyPair(params[l].Gamma, grads[l].Gamma, m.Update)
		applyPair(params[l].Beta, grads[l].Beta, m.Update)
	}
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

// Update applies the momentum update to one (param, grad) pair. It is
// exported because sharded runtimes (internal/dist) step parameter
// slices that never appear in a []Params. g must have w's shape.
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

func applyPair(w, g *tensor.Tensor, f func(w, g *tensor.Tensor)) {
	if w != nil && g != nil {
		f(w, g)
	}
}

// StepWith applies an arbitrary optimizer to the network.
func (n *Network) StepWith(opt Optimizer, grads []Grads) {
	opt.Step(n.Params, grads)
}
