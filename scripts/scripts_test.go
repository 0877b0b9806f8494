// Package scripts_test checks compare_counts.py, the comparator behind
// `make bench-counts`, on small hand-written bench outputs: which count
// changes it lets through, which it refuses, and that it never gates a
// timing.
package scripts_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// run is one workload's result as bench/run.sh prints it: a header line,
// then one JSON result line.
type run struct {
	workload string
	correct  bool
	failed   int
	metrics  map[string]float64 // name → value; the unit comes from units
}

var units = map[string]string{
	"core.delta_log_events": "count",
	"core.store_bytes":      "B",
	"core.event_us_mean":    "us",
}

func baseRun(workload string) run {
	return run{workload: workload, correct: true, metrics: map[string]float64{
		"core.delta_log_events": 160,
		"core.store_bytes":      40960,
		"core.event_us_mean":    168.9,
	}}
}

func writeOut(t *testing.T, path string, runs []run) {
	t.Helper()
	var b strings.Builder
	for _, r := range runs {
		metrics := map[string]any{}
		for name, v := range r.metrics {
			metrics[name] = map[string]any{"value": v, "unit": units[name]}
		}
		line, err := json.Marshal(map[string]any{
			"correct": r.correct, "attempted": 10, "failed": r.failed, "metrics": metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "# dvms bench: workload=%s trace=true seed=1 n=2000\n", r.workload)
		b.WriteString("round trip by layer\n")
		fmt.Fprintf(&b, "%s\n", line)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareCounts(t *testing.T) {
	python, err := exec.LookPath("python3")
	if err != nil {
		t.Skip("no python3 on PATH to run compare_counts.py with")
	}
	cases := []struct {
		name    string
		head    func() []run
		changes string
		ok      bool
		output  string // a fragment the output must hold
	}{
		{
			name:   "unchanged",
			head:   func() []run { return []run{baseRun("brush_cube"), baseRun("brush_delta")} },
			ok:     true,
			output: "4 count/byte metrics compared over 2 workloads",
		},
		{
			name: "timing_changed",
			head: func() []run {
				r := baseRun("brush_cube")
				r.metrics["core.event_us_mean"] = 300
				return []run{r, baseRun("brush_delta")}
			},
			ok: true,
		},
		{
			name: "count_changed_unnamed",
			head: func() []run {
				r := baseRun("brush_cube")
				r.metrics["core.delta_log_events"] = 161
				return []run{r, baseRun("brush_delta")}
			},
			changes: "Faster tile builds.\n",
			output:  "FAIL brush_cube: core.delta_log_events 160 -> 161",
		},
		{
			name: "count_changed_named",
			head: func() []run {
				r := baseRun("brush_cube")
				r.metrics["core.delta_log_events"] = 161
				return []run{r, baseRun("brush_delta")}
			},
			changes: "One more log entry per drag: core.delta_log_events 160 -> 161.\n",
			ok:      true,
			output:  "(named in CHANGES.md)",
		},
		{
			name: "bytes_changed_unnamed",
			head: func() []run {
				r := baseRun("brush_delta")
				r.metrics["core.store_bytes"] = 40000
				return []run{baseRun("brush_cube"), r}
			},
			output: "FAIL brush_delta: core.store_bytes",
		},
		{
			name: "incorrect",
			head: func() []run {
				r := baseRun("brush_cube")
				r.correct = false
				return []run{r, baseRun("brush_delta")}
			},
			output: "FAIL brush_cube: correct=False",
		},
		{
			name: "failed_operations",
			head: func() []run {
				r := baseRun("brush_delta")
				r.failed = 2
				return []run{baseRun("brush_cube"), r}
			},
			output: "FAIL brush_delta: correct=True failed=2",
		},
		{
			name:   "workload_missing",
			head:   func() []run { return []run{baseRun("brush_cube")} },
			output: "FAIL brush_delta: no result in this tree's run",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base, head, changes := filepath.Join(dir, "base.out"), filepath.Join(dir, "head.out"), filepath.Join(dir, "changes.txt")
			writeOut(t, base, []run{baseRun("brush_cube"), baseRun("brush_delta")})
			writeOut(t, head, tc.head())
			if err := os.WriteFile(changes, []byte(tc.changes), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(python, "compare_counts.py", base, head, changes).CombinedOutput()
			if _, exited := err.(*exec.ExitError); err != nil && !exited {
				t.Fatalf("run: %v", err)
			}
			if ok := err == nil; ok != tc.ok {
				t.Errorf("passed = %v, want %v; output:\n%s", ok, tc.ok, out)
			}
			if !strings.Contains(string(out), tc.output) {
				t.Errorf("output lacks %q:\n%s", tc.output, out)
			}
		})
	}
}
