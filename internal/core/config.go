package core

import (
	"paradl/internal/cluster"
	"paradl/internal/nn"
	"paradl/internal/profile"
)

// ProfileMemo memoises derived per-layer profiles by (system, model,
// profiling batch). Each owner — a report Env, a workload Replayer, one
// sweep request — holds its own, so nothing is cached process-wide. The
// zero value is ready; a nil memo profiles afresh on every call. Not
// safe for concurrent use.
type ProfileMemo struct {
	times map[profileKey]*profile.LayerTimes
}

// profileKey names the inputs of profile.ProfileModel: systems and zoo
// models are identified by name, as on the wire (ConfigRef).
type profileKey struct {
	sys, model string
	perPE      int
}

func (pm *ProfileMemo) profile(sys *cluster.System, m *nn.Model, perPE int) *profile.LayerTimes {
	k := profileKey{sys.Name, m.Name, perPE}
	if pm != nil {
		if lt, ok := pm.times[k]; ok {
			return lt
		}
	}
	lt := profile.ProfileModel(profile.NewDevice(sys.GPU), m, perPE)
	if pm != nil {
		if pm.times == nil {
			pm.times = map[profileKey]*profile.LayerTimes{}
		}
		pm.times[k] = lt
	}
	return lt
}

// NewConfig assembles the Config every client projects, simulates or
// serves for (model, system, D, B, P): the per-layer times are the
// derived profile of m on sys's device at per-PE batch perPE, and
// perPE < 1 selects the default max(1, B/P) — the paper's "profile at
// the batch each PE will see". Hybrid grids, segments, φ and optimizer
// state are set on the result; Validate fills their defaults.
func NewConfig(m *nn.Model, sys *cluster.System, d int64, b, p, perPE int, memo *ProfileMemo) Config {
	if perPE < 1 {
		perPE = 1
		if p > 0 && b/p > 1 {
			perPE = b / p
		}
	}
	return Config{Model: m, Sys: sys, Times: memo.profile(sys, m, perPE), D: d, B: b, P: p}
}
