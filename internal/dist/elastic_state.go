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
// by overwriting the freshly-initialized replica before shards are
// carved. Because every engine derives its shards from the full replica
// by Narrow (a copy), parameter restore is uniform: write the canonical
// parameters into the replica and the usual sharding path re-shards
// them — under the original plan, a shrunken plan, or an entirely
// different strategy. What differs per engine — which slice of each
// canonical tensor a PE holds — is stated once, in the ownership table
// its build returns; gatherState and seedVelocities both walk that
// table, so a gather and a restore cannot disagree about the geometry.
// Gathers are pure data movement over cloned tensors, so a
// checkpointing run is bit-identical to a plain one.

// holding says how much of one canonical parameter tensor a PE holds.
type holding int

const (
	// everyRank: the whole tensor, held and stepped in lockstep by every
	// rank of the group (replicated layers; the serial, data and
	// spatial engines' entire state; channel-parallel biases).
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
// spec) and where it sits in the canonical tensor.
type ownedField struct {
	live              *tensor.Tensor
	how               holding
	stage             int // oneStage: the holder's group rank
	axis, start, size int // sliced: live is canonical.Narrow(axis, start, size)
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

// restoreParams copies the canonical snapshot parameters over net's
// seed-derived ones, field by field, with strict shape checking; it
// also validates the snapshot's velocity geometry so seedVelocities
// cannot fail mid-world.
func restoreParams(net *nn.Network, st *ckpt.State) error {
	names := [4]string{"W", "B", "Gamma", "Beta"}
	for l := range net.Params {
		dst := paramFields(&net.Params[l])
		for f, src := range paramFields(&st.Params[l]) {
			if err := restoreField(*dst[f], *src, l, names[f]); err != nil {
				return err
			}
		}
		if st.Vel == nil {
			continue
		}
		for f, vel := range paramFields(&st.Vel[l]) {
			if *vel == nil {
				continue
			}
			if *dst[f] == nil || !tensor.EqualShapes((*vel).Shape(), (*dst[f]).Shape()) {
				return fmt.Errorf("dist: checkpoint velocity for layer %d %s does not match the model's parameter geometry", l, names[f])
			}
		}
	}
	return nil
}

func restoreField(dst, src *tensor.Tensor, l int, name string) error {
	if (dst == nil) != (src == nil) {
		return fmt.Errorf("dist: checkpoint and model disagree on layer %d parameter %s", l, name)
	}
	if dst == nil {
		return nil
	}
	if !tensor.EqualShapes(dst.Shape(), src.Shape()) {
		return fmt.Errorf("dist: checkpoint layer %d %s has shape %v, model wants %v", l, name, src.Shape(), dst.Shape())
	}
	copy(dst.Data(), src.Data())
	return nil
}

// seedVelocities re-seeds momentum state after a restore: every tensor
// this PE (group rank `rank`) holds takes its own private part of the
// canonical velocity — the Narrow slice with the geometry its shard was
// carved by, or a clone of the whole. Tensors another stage holds are
// never stepped here and keep no velocity.
func seedVelocities(cfg *runConfig, mom *nn.Momentum, rank int, own ownership) {
	if mom == nil || cfg.initState == nil || cfg.initState.Vel == nil {
		return
	}
	for l := range own {
		for f, vel := range paramFields(&cfg.initState.Vel[l]) {
			o, v := &own[l][f], *vel
			switch {
			case o.live == nil || v == nil || (o.how == oneStage && o.stage != rank):
			case o.how == sliced:
				mom.SeedVelocity(o.live, v.Narrow(o.axis, o.start, o.size))
			default:
				mom.SeedVelocity(o.live, v.Clone())
			}
		}
	}
}

// gatherState assembles the canonical unsharded training state — full
// parameters and, under momentum, full velocities — on group rank root
// from the holdings of one group. Every rank of the group calls it
// (SPMD: the traffic order is the table order, parameter then velocity
// per field); ranks other than root get back an incomplete state they
// must not use. vel is nil for plain-SGD runs.
func gatherState(group *Comm, root int, own ownership, mom *nn.Momentum) (params, vel []nn.Params) {
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
			*dst[f] = o.gather(group, root, nil)
			if mom != nil {
				*paramFields(&vel[l])[f] = o.gather(group, root, mom)
			}
		}
	}
	return params, vel
}

// gather moves one held tensor — the parameter itself, or with mom set
// its momentum velocity — to root over the transport its holding calls
// for: slices Allgather along their axis (the exact inverse of the
// Narrow that carved them; every rank receives the whole), a stage's
// tensor travels point-to-point from its holder, and what every rank
// holds is simply cloned on root.
func (o *ownedField) gather(group *Comm, root int, mom *nn.Momentum) *tensor.Tensor {
	rank := group.Rank()
	switch {
	case o.how == sliced:
		return group.AllGather(o.snapshot(mom), o.axis)
	case o.how == oneStage && o.stage != root:
		if rank == o.stage {
			group.sendOwned(root, o.snapshot(mom))
		} else if rank == root {
			return group.Recv(o.stage)
		}
	case rank == root:
		return o.snapshot(mom)
	}
	return nil
}

// snapshot returns a private copy of the held parameter (mom nil) or of
// its velocity — a zero tensor when no update has created one yet (lazy
// creation makes absence ≡ zeros, and presence is SPMD-deterministic, so
// every PE of a gather agrees on the geometry).
func (o *ownedField) snapshot(mom *nn.Momentum) *tensor.Tensor {
	if mom == nil {
		return o.live.Clone()
	}
	if v := mom.Velocity(o.live); v != nil {
		return v.Clone()
	}
	return tensor.New(o.live.Shape()...)
}
