package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"paradl/internal/artifact"
)

// A suite file is a set of runs of one commit with its provenance;
// -compare judges two of them by the bounds the catalogue fixes.

type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"input_digest"`
	result
}

// Snapshot identity of a suite file, checked by -compare.
const (
	suiteSchema  = "paradl/bench-suite"
	suiteVersion = 1
)

// suiteFile carries the repo's shared artefact header (schema, Go
// version, GOMAXPROCS, time) plus what only a benchmark needs.
type suiteFile struct {
	artifact.Header
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	NProc     int        `json:"nproc"`
	CPUModel  string     `json:"cpu_model"`
	GitCommit string     `json:"git_commit"`
	GitDirty  bool       `json:"git_dirty"`
	Runs      []suiteRun `json:"runs"`
}

// runSuite runs every workload n times untraced and once traced, each
// in its own process like the driver does, and writes the set to out.
func runSuite(n int, seed int64, seconds float64, out string) error {
	if out == "" {
		return fmt.Errorf("-suite needs -out FILE")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("refusing to write a suite at GOMAXPROCS=%d: p=2 plans on one core measure time slicing, not scaling", runtime.GOMAXPROCS(0))
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sf := suiteFile{
		Header: artifact.NewHeader(suiteSchema, suiteVersion),
		Seed:   seed, Seconds: seconds, NProc: runtime.NumCPU(), CPUModel: cpuModel(),
	}
	sf.GitCommit, sf.GitDirty = gitState()
	for _, w := range workloads {
		for i := 0; i <= n; i++ {
			run := suiteRun{Workload: w.Name, Seed: seed + int64(i), Trace: i == n}
			if run.Trace {
				run.Seed = seed
			}
			trace := "0"
			if run.Trace {
				trace = "1"
			}
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(run.Seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("suite: %s seed %d: %w", w.Name, run.Seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
				return fmt.Errorf("suite: %s seed %d: last line is not a result: %w", w.Name, run.Seed, err)
			}
			if _, rest, ok := strings.Cut(lines[0], "input_digest="); ok {
				run.Digest = rest
			}
			fmt.Fprintf(os.Stderr, "suite: %s seed=%d trace=%t correct=%t attempted=%d failed=%d\n", w.Name, run.Seed, run.Trace, run.Correct, run.Attempted, run.Failed)
			sf.Runs = append(sf.Runs, run)
		}
	}
	b, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func gitState() (commit string, dirty bool) {
	rev, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, _ := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(rev)), len(bytes.TrimSpace(status)) > 0
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worseBy is how much b is worse than a as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// separated reports whether every value of xs is better (or every one
// worse) than every value of ys.
func separated(xs, ys []float64) bool {
	a, b := sorted(xs), sorted(ys)
	return a[len(a)-1] < b[0] || b[len(b)-1] < a[0]
}

// judge gives the verdict of one row: the medians are compared against
// the bound, and when either side's quartile spread is wider than the
// bound the row is unresolved unless the two sets of runs separate.
func judge(a, b []float64, d metricDef) (delta float64, verdict string) {
	delta = worseBy(median(a), median(b), d.Better)
	noisy := spread(a) > d.Bound || spread(b) > d.Bound
	switch {
	case noisy && !separated(a, b):
		return delta, verdictUnresolved
	case delta > d.Bound:
		return delta, verdictRegressed
	default:
		return delta, verdictOK
	}
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sf.Check(suiteSchema, suiteVersion); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs, and the workload's failure rate.
func (sf *suiteFile) values(workload, metric string) (xs []float64, failRate float64) {
	attempted, failed := 0, 0
	for _, r := range sf.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		attempted += r.Attempted
		failed += r.Failed
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	if attempted > 0 {
		failRate = float64(failed) / float64(attempted)
	}
	return xs, failRate
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether b regressed against a: any row beyond its bound, or
// a workload failing a larger share of its operations.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-24s %12s %12s %8s %6s %8s %8s  %s\n", "workload", "metric", "median_a", "median_b", "worse", "bound", "spread_a", "spread_b", "verdict")
	for _, wl := range workloads {
		var failA, failB float64
		for _, d := range endToEnd {
			xa, fa := a.values(wl.Name, d.Name)
			xb, fb := b.values(wl.Name, d.Name)
			failA, failB = fa, fb
			if len(xa) == 0 || len(xb) == 0 {
				return false, fmt.Errorf("compare: %s/%s is missing from one file", wl.Name, d.Name)
			}
			delta, verdict := judge(xa, xb, d)
			if verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-24s %12.4f %12.4f %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n", wl.Name, d.Name,
				median(xa), median(xb), delta*100, d.Bound*100, spread(xa)*100, spread(xb)*100, verdict)
		}
		if failB > failA {
			regressed = true
			fmt.Fprintf(w, "%-14s ops_failed/ops_attempted rose from %.6f to %.6f  %s\n", wl.Name, failA, failB, verdictRegressed)
		}
	}
	return regressed, nil
}
