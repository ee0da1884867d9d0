package dist

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"paradl/internal/core"
)

// Plan is a first-class execution plan: which §3 strategy to run and
// the P1×P2 grid shape to run it on. P1 is always the data-parallel
// axis (replica groups), P2 the model-parallel axis (PEs per group) —
// the same convention as strategy.HybridGroups and core.Config. The
// pure strategies are the degenerate edges of the grids they share with
// the hybrids:
//
//	serial                P1 = P2 = 1
//	data                  width on P1 (P2 = 1: groups of one)
//	spatial/filter/
//	channel/pipeline      width on P2 (P1 = 1: one group spans the world)
//	df/ds/dp hybrids      both axes free
//
// A Plan round-trips through its string form: ParsePlan(p.String())
// yields p back for every valid plan. A pure strategy's DEGENERATE axis
// may be left zero in a hand-built plan — Run fills it with 1, so
// Plan{Strategy: core.Data, P1: 4} is valid — but a zero on a width
// axis (data's P1, filter's P2, either hybrid axis) is an error, never
// silently promoted.
type Plan struct {
	Strategy core.Strategy
	P1, P2   int
}

// P returns the total PE count P1·P2 of the (normalized) plan.
func (pl Plan) P() int {
	pl = pl.normalized()
	return pl.P1 * pl.P2
}

// planAxis classifies where a strategy's width lives on the P1×P2 grid.
// It is the single source of the per-strategy axis convention that
// normalization, rendering, validation, and parsing all share — a new
// strategy states its axis once in axisOf and every plan operation
// follows.
type planAxis int

const (
	axisNone planAxis = iota // serial: both axes pinned to 1
	axisP1                   // data: width on the data-parallel axis, P2 pinned
	axisP2                   // spatial/filter/channel/pipeline: width on the model-parallel axis, P1 pinned
	axisGrid                 // df/ds/dp hybrids: both axes free
)

func axisOf(s core.Strategy) planAxis {
	switch s {
	case core.Serial:
		return axisNone
	case core.Data:
		return axisP1
	case core.DataFilter, core.DataSpatial, core.DataPipeline:
		return axisGrid
	default:
		return axisP2
	}
}

// normalized fills only the axes a pure strategy pins to 1 anyway; the
// width axes stay as given so an explicit zero still fails validation.
func (pl Plan) normalized() Plan {
	switch axisOf(pl.Strategy) {
	case axisGrid:
		// Both axes are widths: nothing to fill.
	case axisP1:
		if pl.P2 == 0 {
			pl.P2 = 1
		}
	case axisNone:
		if pl.P1 == 0 {
			pl.P1 = 1
		}
		if pl.P2 == 0 {
			pl.P2 = 1
		}
	case axisP2:
		if pl.P1 == 0 {
			pl.P1 = 1
		}
	}
	return pl
}

// planShort is the canonical short name used in plan strings; it is the
// inverse image core.ParseStrategy accepts for every strategy.
func planShort(s core.Strategy) string {
	switch s {
	case core.DataFilter:
		return "df"
	case core.DataSpatial:
		return "ds"
	case core.DataPipeline:
		return "dp"
	default:
		return s.String() // serial, data, spatial, pipeline, filter, channel
	}
}

// String renders the canonical plan string: "serial", "data:4",
// "filter:2", or "df:4x2". ParsePlan inverts it exactly.
func (pl Plan) String() string {
	pl = pl.normalized()
	switch axisOf(pl.Strategy) {
	case axisNone:
		return "serial"
	case axisGrid:
		return fmt.Sprintf("%s:%dx%d", planShort(pl.Strategy), pl.P1, pl.P2)
	case axisP1:
		return fmt.Sprintf("%s:%d", planShort(pl.Strategy), pl.P1)
	default:
		return fmt.Sprintf("%s:%d", planShort(pl.Strategy), pl.P2)
	}
}

// MarshalText implements encoding.TextMarshaler with the canonical
// plan string, giving Plan a committed serialized form ("df:4x2") in
// JSON and text wires. Invalid plans refuse to marshal rather than
// emitting a string ParsePlan would reject.
func (pl Plan) MarshalText() ([]byte, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return []byte(pl.String()), nil
}

// UnmarshalText inverts MarshalText via ParsePlan; the decoded plan is
// always normalized and valid.
func (pl *Plan) UnmarshalText(b []byte) error {
	parsed, err := ParsePlan(string(b))
	if err != nil {
		return err
	}
	*pl = parsed
	return nil
}

// Validate rejects plans the registry cannot dispatch: unknown or
// unregistered strategies, non-positive grid axes, grids whose PE count
// P1·P2 does not fit an int (so P() >= 1 for every valid plan), and
// pure strategies whose degenerate axis is not 1 (e.g. Plan{Strategy:
// Data, P2: 3}). Width-vs-model limits (Table 3) are checked later by
// the engine, which knows the model.
func (pl Plan) Validate() error {
	pl = pl.normalized()
	if _, ok := registry[pl.Strategy]; !ok {
		return fmt.Errorf("dist: no registered runner for strategy %v", pl.Strategy)
	}
	if pl.P1 < 1 || pl.P2 < 1 {
		return fmt.Errorf("dist: plan %v needs positive grid axes, got %d×%d", pl.Strategy, pl.P1, pl.P2)
	}
	if pl.P1 > math.MaxInt/pl.P2 {
		return fmt.Errorf("dist: plan %v grid %d×%d overflows the PE count", pl.Strategy, pl.P1, pl.P2)
	}
	switch axisOf(pl.Strategy) {
	case axisNone:
		if pl.P1 != 1 || pl.P2 != 1 {
			return fmt.Errorf("dist: serial plan must be 1×1, got %d×%d", pl.P1, pl.P2)
		}
	case axisP1:
		if pl.P2 != 1 {
			return fmt.Errorf("dist: %v plan puts its width on P1 and needs P2=1, got %d×%d", pl.Strategy, pl.P1, pl.P2)
		}
	case axisP2:
		if pl.P1 != 1 {
			return fmt.Errorf("dist: %v plan puts its width on P2 and needs P1=1, got %d×%d", pl.Strategy, pl.P1, pl.P2)
		}
	}
	return nil
}

// ParsePlan parses a plan string: a strategy name (any spelling
// core.ParseStrategy accepts — "data+filter" and "df" are equivalent),
// optionally followed by ":" and a width — a single integer for pure
// strategies ("data:4", "pipeline:3") or an explicit P1xP2 grid for the
// hybrids ("ds:4x2"). A bare name means width 1. The result always
// satisfies Validate.
func ParsePlan(s string) (Plan, error) {
	name, width, hasWidth := strings.Cut(s, ":")
	strat, err := core.ParseStrategy(name)
	if err != nil {
		return Plan{}, fmt.Errorf("dist: plan %q: %w", s, err)
	}
	pl := Plan{Strategy: strat, P1: 1, P2: 1}
	if hasWidth {
		a, b, grid := strings.Cut(width, "x")
		axis := axisOf(strat)
		switch {
		case grid && axis != axisGrid:
			return Plan{}, fmt.Errorf("dist: plan %q: %v takes a single width, not a grid", s, strat)
		case grid:
			if pl.P1, err = parseAxis(s, a); err != nil {
				return Plan{}, err
			}
			if pl.P2, err = parseAxis(s, b); err != nil {
				return Plan{}, err
			}
		case axis == axisGrid:
			return Plan{}, fmt.Errorf("dist: plan %q: hybrid %v needs an explicit p1xp2 grid", s, strat)
		case axis == axisP1:
			if pl.P1, err = parseAxis(s, a); err != nil {
				return Plan{}, err
			}
		default:
			if pl.P2, err = parseAxis(s, a); err != nil {
				return Plan{}, err
			}
		}
	}
	if err := pl.Validate(); err != nil {
		return Plan{}, err
	}
	return pl, nil
}

// SweepPlans enumerates the candidate plans at total width p: every
// pure strategy with its width on the proper axis, plus every interior
// p1×p2 factorization of the three hybrids (the degenerate p1=1 / p2=1
// edges are exactly the pure strategies already listed). p=1 yields the
// serial baseline alone. This is the ONE enumeration behind the
// planner service's /sweep grid and the workload generator's
// per-scenario candidate set, so "the strategy ordering at width p"
// ranges over the same plans everywhere it is scored.
func SweepPlans(p int) []Plan {
	if p == 1 {
		return []Plan{{Strategy: core.Serial, P1: 1, P2: 1}}
	}
	plans := []Plan{
		{Strategy: core.Data, P1: p, P2: 1},
		{Strategy: core.Spatial, P1: 1, P2: p},
		{Strategy: core.Filter, P1: 1, P2: p},
		{Strategy: core.Channel, P1: 1, P2: p},
		{Strategy: core.Pipeline, P1: 1, P2: p},
	}
	for p2 := 2; p2 <= p/2; p2++ {
		if p%p2 != 0 {
			continue
		}
		for _, s := range []core.Strategy{core.DataFilter, core.DataSpatial, core.DataPipeline} {
			plans = append(plans, Plan{Strategy: s, P1: p / p2, P2: p2})
		}
	}
	return plans
}

// parseAxis parses one positive grid axis of plan string s.
func parseAxis(s, a string) (int, error) {
	n, err := strconv.Atoi(a)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("dist: plan %q: grid axis %q must be a positive integer", s, a)
	}
	return n, nil
}
