// Package protocol defines the line-JSON wire format of the session server
// (cmd/dvms-serve): one JSON request per line in, one JSON response per
// line out. It lives apart from the server so clients, the binary, and the
// tests share one set of wire types.
package protocol

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/server"
)

// Request is one client line.
type Request struct {
	// Op selects the action: ping, event, relation, query, undo, stats,
	// trace, resume, detach.
	Op string `json:"op"`

	// Token names a session for resume: the connection swaps its
	// auto-attached session for the one the token identifies (live,
	// evicted, or — on a durable server — from before a restart).
	Token string `json:"token,omitempty"`

	// event fields: Type is an event type (MOUSE_DOWN, MOUSE_MOVE,
	// MOUSE_UP, HOVER, KEY_PRESS), T the timestamp, X/Y the position, Key
	// the pressed key for KEY_PRESS.
	Type string `json:"type,omitempty"`
	T    int64  `json:"t,omitempty"`
	X    int64  `json:"x,omitempty"`
	Y    int64  `json:"y,omitempty"`
	Key  string `json:"key,omitempty"`

	// relation field.
	Name string `json:"name,omitempty"`
	// query field.
	Q string `json:"q,omitempty"`
	// trace field: restrict the response to the slow-event log (events that
	// exceeded the latency budget) instead of the full recent-trace ring.
	Slow bool `json:"slow,omitempty"`
}

// Response is one server line. OK=false carries Error; the other fields
// depend on the request op.
type Response struct {
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
	Session int    `json:"session,omitempty"`
	// Token is the session's stable resume identity (ping and resume
	// responses): present it in a later resume request to pick the session
	// back up after a disconnect, eviction, or server restart.
	Token string `json:"token,omitempty"`

	// event echo: how the event advanced the interaction transaction.
	Interaction string `json:"interaction,omitempty"`
	Began       bool   `json:"began,omitempty"`
	Committed   bool   `json:"committed,omitempty"`
	Aborted     bool   `json:"aborted,omitempty"`
	RowsEmitted int    `json:"rowsEmitted,omitempty"`
	Version     int    `json:"version,omitempty"`

	// relation/query payload.
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`

	// stats payload. Obs is the requesting session's latency/metrics
	// snapshot; ServerObs the server-wide merge (base engine + every
	// session + server gauges). Both are empty-histogram under DisableObs.
	Stats     *core.Stats   `json:"stats,omitempty"`
	Server    *server.Stats `json:"server,omitempty"`
	Obs       *obs.Snapshot `json:"obs,omitempty"`
	ServerObs *obs.Snapshot `json:"serverObs,omitempty"`

	// trace payload: the session's retained event traces, oldest first.
	Traces []obs.Trace `json:"traces,omitempty"`
}

// ParseRequest decodes one request line.
func ParseRequest(line []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return req, fmt.Errorf("bad request: %v", err)
	}
	if req.Op == "" {
		return req, fmt.Errorf("bad request: missing op")
	}
	return req, nil
}

// WriteResponse encodes one response line (newline-terminated).
func WriteResponse(w io.Writer, resp Response) error {
	b, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// EncodeRow converts a tuple to JSON-encodable values (nil, bool, int64,
// float64, string). NaN and ±Inf have no JSON number form — json.Marshal
// fails on them, and a response that cannot be written costs the client its
// connection — so a non-finite float encodes as null, like SQL's answer to
// an undefined result.
func EncodeRow(row relation.Tuple) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind() {
		case relation.KindNull:
			out[i] = nil
		case relation.KindBool:
			b, _ := v.AsBool()
			out[i] = b
		case relation.KindInt:
			n, _ := v.AsInt()
			out[i] = n
		case relation.KindFloat:
			if f, _ := v.AsFloat(); !math.IsNaN(f) && !math.IsInf(f, 0) {
				out[i] = f
			}
		default:
			out[i] = v.AsString()
		}
	}
	return out
}
