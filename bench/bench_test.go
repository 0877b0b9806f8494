package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/protocol"
)

func TestPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// The highest percentile reported must have at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// encodeRelation renders an engine relation as dvms-serve would send it.
func encodeRelation(t *testing.T, eng *core.Engine, name string) []byte {
	t.Helper()
	rel, err := eng.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	resp := protocol.Response{OK: true, Columns: rel.Schema.Names()}
	for _, row := range rel.Rows {
		resp.Rows = append(resp.Rows, protocol.EncodeRow(row))
	}
	var b bytes.Buffer
	if err := protocol.WriteResponse(&b, resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// The oracle shares only the input rows with the engine; on both programs
// it must agree with core.Engine after every drag, and disagree with a
// chart brushed one month short.
func TestOracleAgainstEngine(t *testing.T) {
	const n, seed = 3000, 5
	rows := generateRows(n, seed)
	or := newOracle(rows)
	for _, w := range []*workload{&workloads[0], &workloads[1]} {
		eng := core.New(core.Config{})
		defer eng.Close()
		if w.program {
			if err := eng.LoadProgram(programWithData(rows)); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := eng.LoadProgram(w.programText()); err != nil {
				t.Fatal(err)
			}
			if err := eng.InsertRows("Sales", experiments.IVMSalesTuples(n, seed)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Commit()
		ts := int64(2)
		for m0 := 0; m0 < 8; m0++ {
			for k := 0; k < eventsPerDrag; k++ {
				_, typ, x := dragEvent(m0, k)
				if _, err := eng.FeedEvent(events.Mouse(typ, ts, x, 45)); err != nil {
					t.Fatal(err)
				}
				ts++
			}
			for _, dim := range oracleDims {
				resp := encodeRelation(t, eng, "FILT_"+dim)
				if err := checkGroups(resp, or.expect(dim, m0+1, m0+5)); err != nil {
					t.Errorf("%s drag at %d: FILT_%s: %v", w.name, m0, dim, err)
				}
				if err := checkGroups(resp, or.expect(dim, m0+1, m0+4)); err == nil {
					t.Errorf("%s drag at %d: FILT_%s also matches a brush one month short", w.name, m0, dim)
				}
			}
		}
	}
}

type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func sameMetrics(t *testing.T, what string, file []benchmarkMetric, defs []metric) {
	t.Helper()
	if len(file) != len(defs) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness defines %d", what, len(file), len(defs))
	}
	for i, m := range defs {
		better := "lower"
		if m.higher {
			better = "higher"
		}
		if file[i].Name != m.name || file[i].Unit != m.unit || file[i].Better != better {
			t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness defines %+v", what, i, file[i], m)
		}
	}
}

// The smoke run: every workload at 2,000 rows, untraced and traced, must be
// correct and emit exactly the metric names, units and workloads that
// BENCHMARK.json declares.
func TestQuickSmoke(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "end_to_end", file.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", file.PerLayer, perLayer)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness defines %d", len(file.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if file.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness defines %q", i, file.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(e, w, 3, 0, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.correct() {
				t.Errorf("%s traced=%v: %s", w.name, traced, rep.why())
			}
			var result struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(rep.resultLine()), &result); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(result.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", w.name, traced, len(result.Metrics), len(defs))
			}
			for _, m := range defs {
				if got, ok := result.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
		}
	}
}
