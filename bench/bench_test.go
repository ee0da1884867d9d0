package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"paradl/internal/artifact"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianPercentileGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for q, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4);
// these are its outputs for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8}, 1.5, 9.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 (5.5/5.5)", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // reaches past the parent: clipped
		{Name: "leaf", Parent: 1, Start: 15, End: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	var nilRec *spanRecorder
	if id := nilRec.begin("x", -1); id != -1 {
		t.Errorf("nil recorder begin = %d, want -1", id)
	}
	nilRec.end(-1) // must not panic
}

func TestJudge(t *testing.T) {
	hi := metricDef{Name: "x_per_s", Better: higher, Bound: 0.10}
	lo := metricDef{Name: "x_ms", Better: lower, Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 0.995} }
	noisy := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	cases := []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", steady(100), steady(100), hi, verdictOK},
		{"throughput fell 20%", steady(100), steady(80), hi, verdictRegressed},
		{"throughput rose 20%", steady(100), steady(120), hi, verdictOK},
		{"latency rose 20%", steady(10), steady(12), lo, verdictRegressed},
		{"latency fell 20%", steady(10), steady(8), lo, verdictOK},
		{"within bound", steady(100), steady(95), hi, verdictOK},
		{"noisy and overlapping", noisy(100), noisy(90), hi, verdictUnresolved},
		{"noisy but separated and worse", noisy(100), noisy(40), hi, verdictRegressed},
		{"noisy but separated and better", noisy(100), noisy(250), hi, verdictOK},
	}
	for _, c := range cases {
		if _, got := judge(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	write := func(name string, scale float64, failed int) string {
		sf := suiteFile{Header: artifact.NewHeader(suiteSchema, suiteVersion)}
		for _, w := range workloads {
			for seed := int64(1); seed <= 5; seed++ {
				r := suiteRun{Workload: w.Name, Seed: seed}
				r.Attempted, r.Failed, r.Correct = 1000, failed, failed == 0
				r.Metrics = map[string]metricValue{}
				for _, d := range endToEnd {
					v := 100 + float64(seed) // 1% steps: well inside every bound
					if d.Name == "hot_req_per_s" {
						v *= scale
					}
					r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
				}
				sf.Runs = append(sf.Runs, r)
			}
		}
		b, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, 0)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, write("same.json", 1, 0)); err != nil || regressed {
		t.Errorf("identical sets: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if strings.Contains(out.String(), verdictUnresolved) || strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("identical sets must be all ok:\n%s", out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, base, write("slow.json", 0.5, 0)); err != nil || !regressed {
		t.Errorf("halved hot_req_per_s: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, base, write("failing.json", 1, 3)); err != nil || !regressed {
		t.Errorf("higher failure rate: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}

func TestGenRequestIsPureAndDistinct(t *testing.T) {
	seen := map[planReq]bool{}
	for tag := 1; tag <= 2000; tag++ {
		r := genRequest(7, coldTagBase+tag, kindMixed)
		if r != genRequest(7, coldTagBase+tag, kindMixed) {
			t.Fatalf("request %d is not a pure function of (seed, tag)", tag)
		}
		if seen[r] {
			t.Fatalf("request %d repeats an earlier key: %v", tag, r)
		}
		seen[r] = true
	}
	if genRequest(7, 1, kindMixed) == genRequest(8, 1, kindMixed) && genRequest(7, 2, kindMixed) == genRequest(8, 2, kindMixed) {
		t.Error("two seeds generate the same requests")
	}
}

// BENCHMARK.json is the catalogue printed by -manifest, within the
// limits the driver's contract sets.
func TestManifestMatchesCatalogue(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	m := buildManifest()
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the contract allows 1–16 and 1–128", len(m.EndToEnd), len(m.PerLayer))
	}
	if len(m.EndToEnd) != 9 || len(m.PerLayer) != 119 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 9 and 119", len(m.EndToEnd), len(m.PerLayer))
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("%d workloads, run_seconds %d: outside the contract", len(m.Workloads), m.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q or direction %q malformed", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		check(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
}

// TestQuickPass runs every workload for a second, untraced and traced,
// and checks that each catalogue name comes out finite, with its unit,
// and that no operation failed.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runOpts{workload: w.Name, seed: 1, seconds: 1, trace: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}
