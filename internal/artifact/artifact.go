// Package artifact defines the shared self-identification header every
// committed machine-readable artefact of this repo carries
// (SCOREBOARD.json, CHAOS.json, PHASES.json). A consumer —
// the CI smoke steps, a later PR's regression gate, an external
// dashboard — first checks Schema and Version before trusting any other
// field, so emitters can evolve their payloads without silently
// breaking readers.
package artifact

import (
	"fmt"
	"runtime"
	"time"
)

// Header is embedded at the top of every committed artefact. Schema
// names the artefact kind ("paradl/scoreboard"), Version its payload
// revision; Generated/GoVersion/GOMAXPROCS record measurement
// provenance the way the pre-header snapshots already did.
type Header struct {
	Schema     string `json:"schema"`
	Version    int    `json:"version"`
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// NewHeader stamps a header for the given schema and version with the
// current environment's provenance.
func NewHeader(schema string, version int) Header {
	return Header{
		Schema:     schema,
		Version:    version,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Check validates that a decoded header identifies the expected schema
// at a version the caller understands (1..maxVersion).
func (h Header) Check(schema string, maxVersion int) error {
	if h.Schema != schema {
		return fmt.Errorf("artifact: schema %q, want %q", h.Schema, schema)
	}
	if h.Version < 1 || h.Version > maxVersion {
		return fmt.Errorf("artifact: %s version %d outside supported 1..%d", schema, h.Version, maxVersion)
	}
	return nil
}
