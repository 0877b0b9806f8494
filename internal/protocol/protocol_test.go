package protocol

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/server"
)

// requests holds one well-formed line per op (both event shapes included);
// the round-trip test and the fuzz corpus share it.
var requests = []Request{
	{Op: "ping"},
	{Op: "event", Type: "MOUSE_DOWN", T: 3, X: 35, Y: 40},
	{Op: "event", Type: "MOUSE_MOVE", T: 4, X: -2, Y: 1 << 40},
	{Op: "event", Type: "KEY_PRESS", T: 5, Key: "a"},
	{Op: "relation", Name: "FILT_region"},
	{Op: "query", Q: `SELECT region, sum(revenue) AS "total" FROM Sales GROUP BY region`},
	{Op: "undo"},
	{Op: "stats"},
	{Op: "trace"},
	{Op: "trace", Slow: true},
	{Op: "resume", Token: "s-0123456789abcdef"},
	{Op: "detach"},
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range requests {
		line, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseRequest(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if got != want {
			t.Fatalf("%s parsed to %+v, want %+v", line, got, want)
		}
	}
	for _, bad := range []string{``, `{`, `[]`, `{}`, `{"op":""}`, `{"op":7}`, `{"op":"event","t":"now"}`} {
		if req, err := ParseRequest([]byte(bad)); err == nil {
			t.Fatalf("%q parsed to %+v, want an error", bad, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	row := relation.Tuple{
		relation.Null(), relation.Bool(true), relation.Int(7), relation.Float(2.5),
		relation.String("x"), relation.Float(math.NaN()), relation.Float(math.Inf(-1)),
	}
	// What a JSON client reads back: numbers are float64, non-finite floats
	// are null.
	decodedRow := []any{nil, true, float64(7), 2.5, "x", nil, nil}

	responses := map[string]Response{
		"error": {Error: "unknown op \"x\""},
		"ping":  {OK: true, Session: 3, Token: "s-1"},
		"event": {OK: true, Session: 3, Interaction: "C", Began: true, Committed: true, RowsEmitted: 2, Version: 9},
		"relation": {OK: true, Session: 3, Columns: []string{"a", "b", "c", "d", "e", "f", "g"},
			Rows: [][]any{EncodeRow(row)}},
		"stats": {OK: true, Session: 3,
			Stats:  &core.Stats{ViewRecomputes: 4, DeltaRowsIn: 10, Exec: core.ExecStats{BatchRows: 8, FusedApplies: 2}},
			Server: &server.Stats{Sessions: 2, SharedBytes: 1 << 20},
			Obs: &obs.Snapshot{
				Histograms: map[string]obs.HistStat{"dvms_event_seconds": {}},
				Counters:   map[string]int64{"dvms_events_total": 7},
				Gauges:     map[string]float64{"dvms_sessions": 2},
			},
			ServerObs: &obs.Snapshot{Counters: map[string]int64{"dvms_events_total": 9}}},
		"trace": {OK: true, Session: 3, Traces: []obs.Trace{{
			ID: 1, Event: "MOUSE_MOVE", Interaction: "C", TotalUS: 81.5, Slow: true,
			Spans: []obs.Span{{Stage: obs.StageDelta, View: "FILT_region", Path: obs.PathCube}},
		}}},
	}
	for name, want := range responses {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		line := buf.Bytes()
		if len(line) == 0 || line[len(line)-1] != '\n' || bytes.IndexByte(line, '\n') != len(line)-1 {
			t.Fatalf("%s: response is not exactly one line: %q", name, line)
		}
		var got Response
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("%s: decode %q: %v", name, line, err)
		}
		if name == "relation" {
			want.Rows = [][]any{decodedRow}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip changed the response\ngot:  %+v\nwant: %+v", name, got, want)
		}
	}
}

// FuzzParseRequest: no input panics the decoder, and whatever it accepts
// re-marshals to a line that parses to the same request.
func FuzzParseRequest(f *testing.F) {
	for _, req := range requests {
		line, _ := json.Marshal(req)
		f.Add(line)
	}
	f.Add([]byte(`{"op":"event","x":1e3,"unknown":[1,{"a":null}]}`))
	f.Add([]byte("{\"op\":\"query\",\"q\":\"\\ud800\"}"))
	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := ParseRequest(line)
		if err != nil {
			return
		}
		if req.Op == "" {
			t.Fatalf("accepted %q with no op", line)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-marshal %+v: %v", line, req, err)
		}
		back, err := ParseRequest(again)
		if err != nil || back != req {
			t.Fatalf("%q -> %+v -> %s -> %+v (%v)", line, req, again, back, err)
		}
	})
}
