package dist

import (
	"fmt"

	"paradl/internal/ckpt"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// This file is the canonical-state machinery of the elastic runtime:
// every engine's sharded training state can be GATHERED into the full
// unsharded tensors a checkpoint records, and such a snapshot RESTORED
// by building each PE's replica from its parameters instead of the
// seed's draw (replica), before shards are carved. Because every engine
// derives its shards from the full replica by Narrow (a copy), or runs
// on the replica itself where it carves none, parameter restore is
// uniform: the replica holds the canonical parameters and the usual
// sharding path re-shards them — under the original plan, a shrunken
// plan, or an entirely different strategy. What differs per engine —
// which slice of each canonical tensor a PE holds — is stated once, in
// the ownership table its build returns; gatherState and
// seedVelocities both walk that table, so a gather and a restore
// cannot disagree about the geometry.
// Gathers are pure data movement over cloned tensors, so a
// checkpointing run is bit-identical to a plain one.

// holding says how much of one canonical parameter tensor a PE holds.
type holding int

const (
	// everyRank: the whole tensor, held and stepped in lockstep by every
	// rank of the group (replicated layers — the whole state of the
	// Tensor engine's data edge and 1×1 corner, serial, and of the
	// spatial engine; channel-parallel biases).
	everyRank holding = iota
	// oneStage: the whole tensor, held by one group rank alone — the
	// pipeline stage that owns the layer. Other ranks keep a stale
	// replica copy they never step.
	oneStage
	// sliced: the [start, start+size) slice along axis — filter shards
	// (axis 0 of W and B) and channel shards (axis 1 of W).
	sliced
)

// ownedField is one PE's holding of one parameter tensor of one layer:
// the live tensor the PE steps (nil when the layer has no such
// parameter — identically on every PE, geometry comes from the model
// spec) and where it sits in the canonical tensor. chunk qualifies the
// velocity: when set, live is updated inside the gradient exchange's
// ring and of live's velocity this PE holds the flat chunk the
// qualifier names, on its ring rank, instead of the whole.
type ownedField struct {
	live              *tensor.Tensor
	how               holding
	stage             int // oneStage: the holder's group rank
	axis, start, size int // sliced: live is canonical.Narrow(axis, start, size)
	chunk             *paramChunk
}

// ownership is a PE's table of holdings, per layer × {W, B, Gamma,
// Beta} in paramFields order.
type ownership [][4]ownedField

// Indices of the fields engines shard, into an ownership row.
const (
	fieldW = iota
	fieldB
)

// paramFields returns the four parameter slots of a layer in canonical
// order.
func paramFields(p *nn.Params) [4]**tensor.Tensor {
	return [4]**tensor.Tensor{&p.W, &p.B, &p.Gamma, &p.Beta}
}

// wholeOwnership is the table of a fully-replicated PE: every parameter
// of the replica, whole, on every rank. Engines that shard overwrite
// the entries of what they carve.
func wholeOwnership(net *nn.Network) ownership {
	own := make(ownership, len(net.Params))
	for l := range net.Params {
		for f, t := range paramFields(&net.Params[l]) {
			own[l][f].live = *t
		}
	}
	return own
}

// slice records that shard is the [start, start+size) slice along axis
// of layer l's canonical field f.
func (own ownership) slice(l, f int, shard *tensor.Tensor, axis, start, size int) {
	own[l][f] = ownedField{live: shard, how: sliced, axis: axis, start: start, size: size}
}

// checkVelocities validates the snapshot's velocity geometry against
// net, the replica built from its parameters, so seedVelocities cannot
// fail mid-world.
func checkVelocities(net *nn.Network, st *ckpt.State) error {
	if st.Vel == nil {
		return nil
	}
	names := [4]string{"W", "B", "Gamma", "Beta"}
	for l := range net.Params {
		params := paramFields(&net.Params[l])
		for f, vel := range paramFields(&st.Vel[l]) {
			if *vel == nil {
				continue
			}
			if *params[f] == nil || !tensor.EqualShapes((*vel).Shape(), (*params[f]).Shape()) {
				return fmt.Errorf("dist: checkpoint velocity for layer %d %s does not match the model's parameter geometry", l, names[f])
			}
		}
	}
	return nil
}

// seedVelocities re-seeds momentum state after a restore: every tensor
// this PE (group rank `rank`) holds takes its own private part of the
// canonical velocity — the Narrow slice with the geometry its shard was
// carved by, or a clone of the whole; narrowed once more to the flat
// chunk this PE steps when the tensor is updated inside the ring.
// Tensors another stage holds are never stepped here and keep no
// velocity.
func seedVelocities(cfg *runConfig, mom *nn.Momentum, rank int, own ownership) {
	if mom == nil || cfg.initState == nil || cfg.initState.Vel == nil {
		return
	}
	for l := range own {
		for f, vel := range paramFields(&cfg.initState.Vel[l]) {
			o, v := &own[l][f], *vel
			if o.live == nil || v == nil || (o.how == oneStage && o.stage != rank) {
				continue
			}
			if o.how == sliced {
				v = v.Narrow(o.axis, o.start, o.size) // a copy already
			} else if o.chunk == nil {
				v = v.Clone()
			}
			if ch := o.chunk; ch != nil {
				ch.v = tensor.FromSlice(append([]float64(nil), v.Data()[ch.off:ch.off+ch.n]...), ch.n)
			} else {
				mom.SeedVelocity(o.live, v)
			}
		}
	}
}

// gatherState assembles the canonical unsharded training state — full
// parameters and, under momentum, full velocities — on group rank root
// of group 0: the groups are bit-identical replicas, so one assembles
// it. Every PE of the world calls it (SPMD: the traffic order is the
// table order; per field a chunked velocity is first made whole by one
// Allgather over the ring that sharded it, then group 0 moves parameter
// and velocity); every PE but that root gets back an incomplete state
// it must not use. vel is nil for plain-SGD runs.
func gatherState(pe *peCtx, root int, own ownership) (params, vel []nn.Params) {
	mom := pe.step.mom
	params = make([]nn.Params, len(own))
	if mom != nil {
		vel = make([]nn.Params, len(own))
	}
	for l := range own {
		dst := paramFields(&params[l])
		for f := range own[l] {
			o := &own[l][f]
			if o.live == nil {
				continue
			}
			var v *tensor.Tensor
			if mom != nil {
				v = o.velocity(mom)
			}
			if pe.seg.Rank() != 0 {
				continue
			}
			*dst[f] = o.gather(pe.group, root, o.live)
			if mom != nil {
				*paramFields(&vel[l])[f] = o.gather(pe.group, root, v)
			}
		}
	}
	return params, vel
}

// velocity returns the momentum velocity of the held tensor, nil when
// no update has created one yet (lazy creation makes absence ≡ zeros,
// and presence is SPMD-deterministic, so every PE of a gather agrees on
// the geometry). A chunked velocity is Allgathered over its ring — every
// member calls, every member receives the whole.
func (o *ownedField) velocity(mom *nn.Momentum) *tensor.Tensor {
	ch := o.chunk
	if ch == nil {
		return mom.Velocity(o.live)
	}
	v := tensor.New(ch.n)
	if ch.v != nil {
		v = ch.v.Clone()
	}
	return ch.ring.AllGather(v, 0).Reshape(o.live.Shape()...)
}

// gather moves one held tensor — the parameter itself, or its velocity
// (nil: none yet, zeros) — to root over the transport its holding calls
// for: slices Allgather along their axis (the exact inverse of the
// Narrow that carved them; every rank receives the whole), a stage's
// tensor travels point-to-point from its holder, and what every rank
// holds is simply cloned on root. What travels is a private copy.
func (o *ownedField) gather(group *Comm, root int, held *tensor.Tensor) *tensor.Tensor {
	snapshot := func() *tensor.Tensor {
		if held == nil {
			return tensor.New(o.live.Shape()...)
		}
		return held.Clone()
	}
	rank := group.Rank()
	switch {
	case o.how == sliced:
		return group.AllGather(snapshot(), o.axis)
	case o.how == oneStage && o.stage != root:
		if rank == o.stage {
			group.sendOwned(root, snapshot())
		} else if rank == root {
			return group.Recv(o.stage)
		}
	case rank == root:
		return snapshot()
	}
	return nil
}
