package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wal"
)

// span is one timed interval of the traced run: a request, or a call into
// one layer's public functions made on its behalf. Times are nanoseconds
// since the recorder's origin.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"` // request id, shared by a request's spans
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a request
	Kind   string `json:"kind"`   // press, move, release, relation, query, undo, other
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing: that is the untraced arm of bench.trace_overhead_ratio.
type recorder struct {
	origin time.Time
	spans  []span
}

func (r *recorder) begin(name string, req int, parent int32, kind opKind) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Req: req, ID: id, Parent: parent, Kind: opNames[kind],
		Start: int64(time.Since(r.origin))})
	return id
}

func (r *recorder) end(id int32) {
	if r != nil {
		r.spans[id].End = int64(time.Since(r.origin))
	}
}

// inproc is the in-process target: the request loop of cmd/dvms-serve
// (serveConn + handle) over a server built the way dvms-serve builds it,
// minus the socket. With a recorder it wraps the calls into each layer in
// spans: protocol.ParseRequest, the Session method, and
// protocol.EncodeRow + WriteResponse.
type inproc struct {
	srv  *server.Server
	sess *server.Session
	rec  *recorder
	req  int
	out  bytes.Buffer
	by   [numOps]lineBytes
	opCounts
}

// lineBytes counts one op kind's request and response line bytes.
type lineBytes struct {
	in, out int64
	n       int
}

func (p *inproc) counts() *opCounts { return &p.opCounts }

func (p *inproc) do(kind opKind, line []byte) ([]byte, time.Duration) {
	p.attempted++
	p.req++
	p.out.Reset()
	line = bytes.TrimSuffix(line, []byte("\n")) // the scanner strips it in dvms-serve
	start := time.Now()
	root := p.rec.begin("serve.request", p.req, -1, kind)

	id := p.rec.begin("protocol.decode", p.req, root, kind)
	req, err := protocol.ParseRequest(line)
	p.rec.end(id)

	var resp protocol.Response
	var rel *relation.Relation
	if err == nil {
		id = p.rec.begin("server."+req.Op, p.req, root, kind)
		resp, rel, err = p.handle(req)
		p.rec.end(id)
	}
	if err != nil {
		resp = protocol.Response{Error: err.Error()}
	}

	id = p.rec.begin("protocol.encode", p.req, root, kind)
	if rel != nil {
		resp.Columns = rel.Schema.Names()
		resp.Rows = make([][]any, len(rel.Rows))
		for i, row := range rel.Rows {
			resp.Rows[i] = protocol.EncodeRow(row)
		}
	}
	werr := protocol.WriteResponse(&p.out, resp)
	p.rec.end(id)

	p.rec.end(root)
	took := time.Since(start)
	p.by[kind].in += int64(len(line) + 1)
	p.by[kind].out += int64(p.out.Len())
	p.by[kind].n++
	if err != nil || werr != nil || !bytes.HasPrefix(p.out.Bytes(), okPrefix) {
		p.fail("%s → %s", line, bytes.TrimSpace(p.out.Bytes()))
		return nil, took
	}
	return p.out.Bytes(), took
}

// handle mirrors handle in cmd/dvms-serve for the ops the replay sends.
// A relation is returned unencoded so that encoding falls in its own span.
func (p *inproc) handle(req protocol.Request) (protocol.Response, *relation.Relation, error) {
	ok := protocol.Response{OK: true, Session: p.sess.ID()}
	switch req.Op {
	case "event":
		te, err := p.sess.Feed(events.Mouse(req.Type, req.T, req.X, req.Y))
		ok.Interaction, ok.Began, ok.Committed, ok.Aborted = te.Interaction, te.Began, te.Committed, te.Aborted
		ok.RowsEmitted, ok.Version = te.RowsEmitted, te.Version
		return ok, nil, err
	case "relation":
		rel, err := p.sess.Relation(req.Name)
		return ok, rel, err
	case "query":
		rel, err := p.sess.Query(req.Q)
		return ok, rel, err
	case "undo":
		return ok, nil, p.sess.Undo()
	default:
		return ok, nil, fmt.Errorf("unknown op %q", req.Op)
	}
}

// newServer builds the server as run() in cmd/dvms-serve does: server.New
// or NewDurable with the default config, then the workload's load.
func newServer(w *workload, program string, rows []relation.Tuple, dataDir string) (*server.Server, error) {
	var srv *server.Server
	var err error
	if w.durable {
		srv, _, err = server.NewDurable(server.Config{IdleTimeout: 10 * time.Minute}, program,
			wal.Options{Dir: dataDir, Policy: wal.SyncAlways})
	} else {
		srv, err = server.New(server.Config{IdleTimeout: 10 * time.Minute}, program)
	}
	if err != nil {
		return nil, err
	}
	if !w.program {
		if err := srv.InsertRows("Sales", rows); err != nil {
			return nil, err
		}
	}
	return srv, nil
}
