package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paradl/internal/ckpt"
)

// TestElasticTrainKillSmoke is the e2e smoke of the acceptance
// criteria: -train data:4 -kill 3@2 -ckpt-every 1 recovers without
// human intervention, prints the recovery line, and still passes the
// built-in parity gate.
func TestElasticTrainKillSmoke(t *testing.T) {
	var out bytes.Buffer
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	err := runElasticTrain(&out, "data:4", "on", trainDefaultModel,
		elasticConfig{Every: 1, Kill: "3@2"}, tracePath)
	if err != nil {
		t.Fatalf("elastic -train: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "recovered: PE 3 died at iteration 2") {
		t.Fatalf("missing recovery line in output:\n%s", s)
	}
	if !strings.Contains(s, "resumed from checkpoint at iteration 2") {
		t.Fatalf("missing resume point in output:\n%s", s)
	}
	if !strings.Contains(s, "reproduces sequential SGD value-by-value") {
		t.Fatalf("parity gate did not pass:\n%s", s)
	}
	// -trace on the elastic path: valid trace_event JSON whose
	// supervisor track carries the recovery span.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("-trace wrote nothing: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
		if n, ok := e.Args["name"].(string); ok {
			names[n] = true // thread_name metadata carries track labels
		}
	}
	for _, want := range []string{"recovery", "supervisor", "compute-forward"} {
		if !names[want] {
			t.Fatalf("trace missing %q event (have %v)", want, names)
		}
	}
}

// TestElasticTrainCheckpointResumeMigrate: a checkpointing run under
// data:4 leaves files in -ckpt-dir; -resume continues from the latest
// under a DIFFERENT plan (live migration) and still passes parity.
func TestElasticTrainCheckpointResumeMigrate(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := runElasticTrain(&out, "data:4", "on", trainDefaultModel,
		elasticConfig{Every: 1, Dir: dir}, ""); err != nil {
		t.Fatalf("checkpointing run: %v\n%s", err, out.String())
	}
	// The writer keeps the newest snapshot (ckpt.Writer): one that is
	// still pending when the next iteration's arrives is displaced, so
	// how many of iterations 1–3 reach the disk depends on how fast the
	// disk is against training. The run says how many: the files on disk
	// are exactly the saved ones, saved and displaced add up to the four
	// snapshots taken, the last one always reaches the disk, and every
	// file written is a whole data:4 checkpoint.
	var saved, displaced int
	line := out.String()[max(strings.Index(out.String(), "checkpoints: "), 0):]
	if _, err := fmt.Sscanf(line, "checkpoints: %d saved, %d displaced", &saved, &displaced); err != nil {
		t.Fatalf("no checkpoint count in output (%v):\n%s", err, out.String())
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.pdl"))
	if len(paths) == 0 || len(paths) != saved || saved+displaced != 4 || filepath.Base(paths[len(paths)-1]) != ckpt.FileName(4) {
		t.Fatalf("%d saved, %d displaced: expected that many checkpoints, 4 in all, ending at iteration 4; found %v", saved, displaced, paths)
	}
	for _, p := range paths {
		st, err := ckpt.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(p) != ckpt.FileName(st.Iter) || st.Plan != "data:4" {
			t.Fatalf("%s holds iteration %d of plan %s", p, st.Iter, st.Plan)
		}
	}
	// The completed run checkpoints at iteration 4 == schedule end;
	// -resume must refuse a nothing-left resume.
	var done bytes.Buffer
	if err := runElasticTrain(&done, "df:2x2", "on", trainDefaultModel,
		elasticConfig{Dir: dir, Resume: true}, ""); err == nil {
		t.Fatal("-resume past the end of the schedule must error")
	}
	// Roll back to iteration 2 and migrate data:4 → df:2x2, from the
	// iteration-2 file a CLI run wrote. A run that loses PE 3 at
	// iteration 2 keeps that file for sure: the supervisor drains the
	// writer and restores from the newest file on disk before it
	// re-plans, which its recovery line reports.
	killed := t.TempDir()
	var kill bytes.Buffer
	if err := runElasticTrain(&kill, "data:4", "on", trainDefaultModel,
		elasticConfig{Every: 1, Dir: killed, Kill: "3@2"}, ""); err != nil {
		t.Fatalf("checkpointing run with a kill: %v\n%s", err, kill.String())
	}
	if !strings.Contains(kill.String(), "resumed from checkpoint at iteration 2") {
		t.Fatalf("missing resume point in output:\n%s", kill.String())
	}
	st, err := ckpt.Load(filepath.Join(killed, ckpt.FileName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 2 || st.Plan != "data:4" {
		t.Fatalf("%s holds iteration %d of plan %s", ckpt.FileName(2), st.Iter, st.Plan)
	}
	mid := t.TempDir()
	if _, err := ckpt.Save(mid, st); err != nil {
		t.Fatal(err)
	}
	var res bytes.Buffer
	if err := runElasticTrain(&res, "df:2x2", "on", trainDefaultModel,
		elasticConfig{Dir: mid, Resume: true}, ""); err != nil {
		t.Fatalf("-resume with migration: %v\n%s", err, res.String())
	}
	s := res.String()
	if !strings.Contains(s, "migrating to df:2x2") {
		t.Fatalf("missing migration note:\n%s", s)
	}
	if !strings.Contains(s, "reproduces sequential SGD value-by-value") {
		t.Fatalf("parity gate did not pass after migration:\n%s", s)
	}
}

func TestParseKill(t *testing.T) {
	pe, iter, err := parseKill("3@2")
	if err != nil || pe != 3 || iter != 2 {
		t.Fatalf("parseKill(3@2) = %d,%d,%v", pe, iter, err)
	}
	for _, bad := range []string{"", "3", "@", "a@2", "3@b", "-1@2", "3@-2"} {
		if _, _, err := parseKill(bad); err == nil {
			t.Fatalf("parseKill(%q) must error", bad)
		}
	}
}

// TestElasticTrainKillOutOfRange: killing a PE the plan does not have
// is a user error, not a hang.
func TestElasticTrainKillOutOfRange(t *testing.T) {
	var out bytes.Buffer
	if err := runElasticTrain(&out, "data:2", "on", trainDefaultModel,
		elasticConfig{Every: 1, Kill: "7@1"}, ""); err == nil {
		t.Fatal("-kill 7@1 on a 2-PE plan must error")
	}
}
