package report

import (
	"bytes"
	"strings"
	"testing"

	"paradl/internal/core"
)

// TestRuntimeOverheadRows: the measured-vs-projected table carries the
// serial baseline plus every strategy feasible at p=2, with positive
// measurements and sane ratios on both sides.
func TestRuntimeOverheadRows(t *testing.T) {
	e := NewEnv()
	rows, err := e.RuntimeOverhead(2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Strategy != core.Serial || rows[0].MeasuredOverhead != 1 || rows[0].ProjectedOverhead != 1 {
		t.Fatalf("first row must be the serial baseline at overhead 1, got %+v", rows[0])
	}
	seen := map[core.Strategy]bool{}
	for _, r := range rows {
		seen[r.Strategy] = true
		if r.MeasuredSec <= 0 || r.MeasuredOverhead <= 0 || r.ProjectedOverhead <= 0 {
			t.Fatalf("%v: non-positive measurement %+v", r.Strategy, r)
		}
		if r.BlockingSec <= 0 || r.BlockingOverhead <= 0 {
			t.Fatalf("%v: missing blocking (overlap=off) measurement %+v", r.Strategy, r)
		}
	}
	// Every pure strategy admits p=2 on the toy model.
	for _, s := range []core.Strategy{core.Data, core.Spatial, core.Filter, core.Channel, core.Pipeline} {
		if !seen[s] {
			t.Fatalf("strategy %v missing from the p=2 table", s)
		}
	}
}

// TestRuntimeOverheadDropsInfeasibleWidth: a plan the runtime rejects
// before spawning (spatial:6 on the 4-wide toy input — a typed
// *dist.InfeasibleError skip in the join) drops its row from both
// overlap passes alike; everything that ran keeps both columns.
func TestRuntimeOverheadDropsInfeasibleWidth(t *testing.T) {
	rows, err := NewEnv().RuntimeOverhead(6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[core.Strategy]bool{}
	for _, r := range rows {
		seen[r.Strategy] = true
		if r.MeasuredSec <= 0 || r.BlockingSec <= 0 || r.ProjectedOverhead <= 0 {
			t.Fatalf("%v: incomplete row %+v", r.Strategy, r)
		}
	}
	if seen[core.Spatial] || !seen[core.Data] || !seen[core.DataPipeline] {
		t.Fatalf("p=6 must drop spatial and keep data and dp 3×2, got %v", seen)
	}
}

// TestRuntimeOverheadBounds: widths outside toy scale are rejected.
func TestRuntimeOverheadBounds(t *testing.T) {
	e := NewEnv()
	for _, p := range []int{0, 1, 9, 64} {
		if _, err := e.RuntimeOverhead(p); err == nil {
			t.Fatalf("p=%d must be rejected", p)
		}
	}
}

// TestWriteRuntimeOverhead: the rendering includes the header and one
// line per strategy.
func TestWriteRuntimeOverhead(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEnv().WriteRuntimeOverhead(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"measured overhead", "projected overhead", "serial", "data", "pipeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}
