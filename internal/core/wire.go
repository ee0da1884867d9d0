package core

// Stable wire encoding for the oracle's types. Projections are pure
// functions of (model, cluster, plan): a Config is CONTENT-ADDRESSED by
// the names of its model and machine plus its scalar knobs, so the wire
// form carries references, not the multi-megabyte resolved structures.
// ConfigRef is that reference form; Resolve reconstructs the exact
// Config the CLI builds for the same inputs (zoo model, named cluster,
// derived per-layer profile at per-PE batch B/P). Custom Times or
// hand-built models are outside the wire contract: the serialized form
// commits to the derived default profile, which is what makes
// projections cacheable and serveable.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"paradl/internal/cluster"
	"paradl/internal/model"
)

// ConfigRef is the wire form of Config: every field that addresses a
// projection, with the model and cluster resolved to their canonical
// names. Two Configs with equal refs project bit-identically.
type ConfigRef struct {
	Model               string  `json:"model"`
	Cluster             string  `json:"cluster"`
	D                   int64   `json:"d"`
	B                   int     `json:"b"`
	P                   int     `json:"p"`
	P1                  int     `json:"p1,omitempty"`
	P2                  int     `json:"p2,omitempty"`
	Segments            int     `json:"segments,omitempty"`
	Phi                 float64 `json:"phi,omitempty"`
	OptimizerExtraState int     `json:"optimizer_extra_state,omitempty"`
}

// Ref projects a Config down to its wire reference.
func (c Config) Ref() ConfigRef {
	r := ConfigRef{
		D: c.D, B: c.B, P: c.P, P1: c.P1, P2: c.P2,
		Segments: c.Segments, Phi: c.Phi,
		OptimizerExtraState: c.OptimizerExtraState,
	}
	if c.Model != nil {
		r.Model = c.Model.Name
	}
	if c.Sys != nil {
		r.Cluster = c.Sys.Name
	}
	return r
}

// Resolve reconstructs the full Config: the zoo model, the named
// cluster, and the derived per-layer time profile at per-PE batch
// max(1, B/P) — exactly what the paradl CLI builds for the same flags,
// so server-side and in-process projections agree bit for bit.
func (r ConfigRef) Resolve() (Config, error) {
	if r.D <= 0 || r.B <= 0 || r.P <= 0 {
		return Config{}, fmt.Errorf("core: config ref needs positive D=%d B=%d P=%d", r.D, r.B, r.P)
	}
	m, err := model.ByName(r.Model)
	if err != nil {
		return Config{}, err
	}
	sys, err := cluster.ByName(r.Cluster)
	if err != nil {
		return Config{}, err
	}
	cfg := NewConfig(m, sys, r.D, r.B, r.P, 0, nil)
	cfg.P1, cfg.P2 = r.P1, r.P2
	cfg.Segments, cfg.Phi = r.Segments, r.Phi
	cfg.OptimizerExtraState = r.OptimizerExtraState
	return cfg, nil
}

// Canonical renders the ref in its canonical content-addressed form:
// fixed field order, every field present (no omission ambiguity), and
// floats in Go's shortest round-trip formatting, so equal refs — and
// only equal refs — render equal strings regardless of how the request
// that produced them was spelled.
func (r ConfigRef) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s|cluster=%s|d=%d|b=%d|p=%d|p1=%d|p2=%d|segments=%d|phi=%s|optextra=%d",
		r.Model, r.Cluster, r.D, r.B, r.P, r.P1, r.P2, r.Segments,
		strconv.FormatFloat(r.Phi, 'g', -1, 64), r.OptimizerExtraState)
	return b.String()
}

// Key returns the content address of the ref: the SHA-256 of its
// canonical rendering, hex-encoded.
func (r ConfigRef) Key() string {
	sum := sha256.Sum256([]byte(r.Canonical()))
	return hex.EncodeToString(sum[:])
}

// MarshalText implements encoding.TextMarshaler with the paper's
// strategy names, making Strategy fields wire-stable in JSON.
func (s Strategy) MarshalText() ([]byte, error) {
	name := s.String()
	if _, err := ParseStrategy(name); err != nil {
		return nil, err
	}
	return []byte(name), nil
}

// UnmarshalText inverts MarshalText via ParseStrategy.
func (s *Strategy) UnmarshalText(b []byte) error {
	parsed, err := ParseStrategy(string(b))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// wireProjection is the committed JSON shape of a Projection.
type wireProjection struct {
	Strategy    Strategy  `json:"strategy"`
	Config      ConfigRef `json:"config"`
	Epoch       Breakdown `json:"epoch"`
	MemoryPerPE float64   `json:"memory_per_pe"`
	MaxPE       int       `json:"max_pe"`
	Feasible    bool      `json:"feasible"`
	Notes       []string  `json:"notes,omitempty"`
}

// MarshalJSON encodes the projection with its config as a ConfigRef:
// stable field order, resolved names, shortest-round-trip floats.
func (p Projection) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireProjection{
		Strategy: p.Strategy, Config: p.Config.Ref(), Epoch: p.Epoch,
		MemoryPerPE: p.MemoryPerPE, MaxPE: p.MaxPE, Feasible: p.Feasible,
		Notes: p.Notes,
	})
}

// UnmarshalJSON inverts MarshalJSON, resolving the ConfigRef back into
// the full Config (zoo model, named cluster, derived profile).
func (p *Projection) UnmarshalJSON(b []byte) error {
	var w wireProjection
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	cfg, err := w.Config.Resolve()
	if err != nil {
		return fmt.Errorf("core: projection config: %w", err)
	}
	*p = Projection{
		Strategy: w.Strategy, Config: cfg, Epoch: w.Epoch,
		MemoryPerPE: w.MemoryPerPE, MaxPE: w.MaxPE, Feasible: w.Feasible,
		Notes: w.Notes,
	}
	return nil
}

// wireAdvice is the committed JSON shape of an Advice.
type wireAdvice struct {
	Projection *Projection `json:"projection"`
	Rank       int         `json:"rank"`
}

// MarshalJSON encodes the advice with lower-case stable keys.
func (a Advice) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireAdvice{Projection: a.Projection, Rank: a.Rank})
}

// UnmarshalJSON inverts MarshalJSON.
func (a *Advice) UnmarshalJSON(b []byte) error {
	var w wireAdvice
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	a.Projection, a.Rank = w.Projection, w.Rank
	return nil
}
