package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paradl/internal/workload"
)

// testOptions returns quick-run settings for every experiment family.
func testOptions() options {
	return options{
		trials: 2, congested: 0.5, seed: 1,
		scenarios: 1, workloadSeed: 1, replayIters: 1,
	}
}

func TestRunSingleExperiments(t *testing.T) {
	for _, exp := range []string{"table5", "fig7", "fig8"} {
		var buf bytes.Buffer
		if err := run(&buf, exp, testOptions()); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", exp)
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, "fig99", testOptions())
	if err == nil {
		t.Fatal("unknown experiment must error")
	}
	// The error must enumerate the registry so the user can self-serve
	// — the whole point of the registered descriptions.
	for _, name := range []string{"table3", "fig6", "trace", "scoreboard", "chaos", "phases"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error does not list %q:\n%v", name, err)
		}
	}
}

func TestRunCSVMode(t *testing.T) {
	var buf bytes.Buffer
	o := testOptions()
	o.csv = true
	if err := run(&buf, "fig6", o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "series,bytes,") {
		t.Fatalf("csv output missing header: %q", out[:40])
	}
}

// TestDescribeExperiments: the usage listing names every registered
// experiment with a non-empty description — the satellite contract that
// `paraexp -h` and unknown -exp values are self-documenting.
func TestDescribeExperiments(t *testing.T) {
	listing := describeExperiments(false)
	for _, x := range append(registry(false), experiment{name: "all"}) {
		if !strings.Contains(listing, x.name) {
			t.Errorf("usage listing is missing %q", x.name)
		}
	}
	for _, x := range registry(false) {
		if x.desc == "" {
			t.Errorf("experiment %q has no description", x.name)
		}
		if x.run == nil {
			t.Errorf("experiment %q has no runner", x.name)
		}
	}
}

// TestTraceExperiment: -exp trace emits a valid trace that regenerates
// byte-identically from its own header.
func TestTraceExperiment(t *testing.T) {
	var buf bytes.Buffer
	o := testOptions()
	o.scenarios, o.workloadSeed = 4, 9
	if err := run(&buf, "trace", o); err != nil {
		t.Fatal(err)
	}
	h, scs, err := workload.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Spec.Seed != 9 || h.Spec.N != 4 || len(scs) != 4 {
		t.Fatalf("trace header %+v over %d scenarios, want seed 9 N 4", h, len(scs))
	}
	var again bytes.Buffer
	if err := run(&again, "trace", o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("-exp trace is not byte-reproducible at a fixed seed")
	}
}

// TestScoreboardExperiment: -exp scoreboard on a tiny sweep emits a
// valid self-identifying artefact, and -trace replays a recorded trace
// to the same scenario set.
func TestScoreboardExperiment(t *testing.T) {
	var buf bytes.Buffer
	o := testOptions()
	o.scenarios, o.workloadSeed = 2, 11
	if err := run(&buf, "scoreboard", o); err != nil {
		t.Fatal(err)
	}
	var sb workload.Scoreboard
	if err := json.Unmarshal(buf.Bytes(), &sb); err != nil {
		t.Fatalf("scoreboard is not valid JSON: %v", err)
	}
	if err := sb.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sb.Scenarios) != 2 {
		t.Fatalf("scoreboard has %d scenarios, want 2", len(sb.Scenarios))
	}

	// Round-trip via a trace file: same spec, same trace digest.
	var trace bytes.Buffer
	if err := run(&trace, "trace", o); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed bytes.Buffer
	o.traceFile = path
	if err := run(&replayed, "scoreboard", o); err != nil {
		t.Fatal(err)
	}
	var sb2 workload.Scoreboard
	if err := json.Unmarshal(replayed.Bytes(), &sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.TraceSHA256 != sb.TraceSHA256 || sb2.Spec != sb.Spec {
		t.Fatalf("trace-file replay drifted: %s/%+v vs %s/%+v",
			sb2.TraceSHA256, sb2.Spec, sb.TraceSHA256, sb.Spec)
	}
}
