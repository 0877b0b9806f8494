package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/protocol"
	"repro/internal/server"
)

// startTestServer runs the accept loop on an ephemeral port over a small
// IVM workload and returns the address.
func startTestServer(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{}, experiments.BuildIVMCrossfilterProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(500, 7)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveConn(srv, conn)
		}
	}()
	return ln.Addr().String()
}

type testClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialClient(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *testClient) roundTrip(req string) protocol.Response {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.conn, req); err != nil {
		c.t.Fatalf("write: %v", err)
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	var resp protocol.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		c.t.Fatalf("decode %q: %v", line, err)
	}
	return resp
}

func (c *testClient) must(req string) protocol.Response {
	c.t.Helper()
	resp := c.roundTrip(req)
	if !resp.OK {
		c.t.Fatalf("%s failed: %s", req, resp.Error)
	}
	return resp
}

// brush drives a down-move-…-up drag selecting the first k month buckets.
func (c *testClient) brush(k int) {
	c.t.Helper()
	c.must(`{"op":"event","type":"MOUSE_DOWN","t":0,"x":35,"y":40}`)
	for i := 0; i <= k; i++ {
		c.must(fmt.Sprintf(`{"op":"event","type":"MOUSE_MOVE","t":%d,"x":%d,"y":45}`, i+1, 45+20*i))
	}
	resp := c.must(fmt.Sprintf(`{"op":"event","type":"MOUSE_UP","t":%d,"x":%d,"y":45}`, k+2, 45+20*k))
	if !resp.Committed {
		c.t.Fatalf("drag should commit, got %+v", resp)
	}
}

// TestProtocolSessions drives two concurrent clients with different
// brushes and checks their selections are isolated while shared relations
// are visible to both.
func TestProtocolSessions(t *testing.T) {
	addr := startTestServer(t)
	c1 := dialClient(t, addr)
	c2 := dialClient(t, addr)

	p1 := c1.must(`{"op":"ping"}`)
	p2 := c2.must(`{"op":"ping"}`)
	if p1.Session == p2.Session {
		t.Fatalf("connections share a session id: %d", p1.Session)
	}

	// Concurrent brushing: client 1 selects 1 month, client 2 selects 6.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c1.brush(0) }()
	go func() { defer wg.Done(); c2.brush(5) }()
	wg.Wait()

	r1 := c1.must(`{"op":"relation","name":"selected_months"}`)
	r2 := c2.must(`{"op":"relation","name":"selected_months"}`)
	if len(r1.Rows) != 1 || len(r2.Rows) != 6 {
		t.Fatalf("selections not isolated: c1=%d months, c2=%d months", len(r1.Rows), len(r2.Rows))
	}

	// Both see the same shared relation through the catalog chain.
	s1 := c1.must(`{"op":"query","q":"SELECT count(*) FROM Sales"}`)
	s2 := c2.must(`{"op":"query","q":"SELECT count(*) FROM Sales"}`)
	if fmt.Sprint(s1.Rows) != fmt.Sprint(s2.Rows) {
		t.Fatalf("shared reads diverge: %v vs %v", s1.Rows, s2.Rows)
	}

	// Stats round-trip exposes the share registry.
	st := c1.must(`{"op":"stats"}`)
	if st.Server == nil || st.Server.SharedSides == 0 {
		t.Fatalf("server stats missing share registry: %+v", st.Server)
	}
	if st.Server.Sessions != 2 {
		t.Fatalf("server sees %d sessions, want 2", st.Server.Sessions)
	}

	// Undo rewinds client 2's committed brush; client 1 is untouched.
	c2.must(`{"op":"undo"}`)
	r2 = c2.must(`{"op":"relation","name":"selected_months"}`)
	if len(r2.Rows) != 12 {
		t.Fatalf("undo should restore the all-months selection, got %d", len(r2.Rows))
	}
	r1 = c1.must(`{"op":"relation","name":"selected_months"}`)
	if len(r1.Rows) != 1 {
		t.Fatalf("client 1 selection changed by client 2 undo: %d months", len(r1.Rows))
	}

	// Errors are reported in-band, not by dropping the connection.
	if resp := c1.roundTrip(`{"op":"relation","name":"nope"}`); resp.OK || resp.Error == "" {
		t.Fatalf("want in-band error, got %+v", resp)
	}
	if resp := c1.roundTrip(`{"op":"frobnicate"}`); resp.OK {
		t.Fatalf("unknown op should error, got %+v", resp)
	}
	c1.must(`{"op":"ping"}`)
}

// startObsTestServer is startTestServer with a 1ns latency budget so every
// event lands in the slow log (exercising the trace op's slow filter).
func startObsTestServer(t *testing.T) string {
	t.Helper()
	cfg := server.Config{}
	cfg.Engine.LatencyBudget = 1 // 1ns: every event is slow
	srv, err := server.New(cfg, experiments.BuildIVMCrossfilterProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(500, 7)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveConn(srv, conn)
		}
	}()
	return ln.Addr().String()
}

// TestStatsAndTraceOps drives a brush and checks the stats op carries the
// session and server-wide metrics snapshots and the trace op returns the
// event traces (full ring and slow-only).
func TestStatsAndTraceOps(t *testing.T) {
	addr := startObsTestServer(t)
	c := dialClient(t, addr)
	c.brush(2)

	st := c.must(`{"op":"stats"}`)
	if st.Obs == nil || st.ServerObs == nil {
		t.Fatalf("stats response missing obs snapshots: %+v", st)
	}
	ev, ok := st.Obs.Histograms["dvms_event_seconds"]
	if !ok || ev.Count == 0 {
		t.Fatalf("session snapshot recorded no events: %+v", st.Obs.Histograms)
	}
	sev, ok := st.ServerObs.Histograms["dvms_event_seconds"]
	if !ok || sev.Count < ev.Count {
		t.Fatalf("server-wide merge (%d events) should cover the session (%d)", sev.Count, ev.Count)
	}
	if st.ServerObs.Gauges["dvms_sessions"] != 1 {
		t.Fatalf("dvms_sessions gauge = %v, want 1", st.ServerObs.Gauges["dvms_sessions"])
	}
	if st.ServerObs.Counters["dvms_sessions_attached_total"] == 0 {
		t.Fatalf("server counters missing from merge: %+v", st.ServerObs.Counters)
	}

	full := c.must(`{"op":"trace"}`)
	if len(full.Traces) == 0 {
		t.Fatalf("trace op returned no traces")
	}
	var withSpans int
	for _, tr := range full.Traces {
		if len(tr.Spans) > 0 {
			withSpans++
		}
	}
	if withSpans == 0 {
		t.Fatalf("no trace carries stage spans: %+v", full.Traces)
	}

	slow := c.must(`{"op":"trace","slow":true}`)
	if len(slow.Traces) == 0 || len(slow.Traces) > len(full.Traces) {
		t.Fatalf("slow filter wrong: %d slow vs %d total", len(slow.Traces), len(full.Traces))
	}
	for _, tr := range slow.Traces {
		if !tr.Slow {
			t.Fatalf("slow-only listing contains a fast trace: %+v", tr)
		}
	}
}

// TestMetricsEndpoint checks the -metrics-addr HTTP surface: /metrics serves
// the Prometheus text exposition of the server-wide snapshot and the pprof
// index responds.
func TestMetricsEndpoint(t *testing.T) {
	srv, err := server.New(server.Config{}, experiments.BuildIVMCrossfilterProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(200, 7)); err != nil {
		t.Fatal(err)
	}
	ms, err := serveMetrics(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + ms.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("wrong exposition content type %q", ctype)
	}
	for _, want := range []string{
		"# TYPE dvms_event_seconds summary",
		"dvms_sessions 0",
		"dvms_sessions_attached_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if body, _ := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index looks wrong:\n%.200s", body)
	}
}

// TestNonFiniteFloatKeepsConnection pins the wire contract for query results
// JSON cannot express: NaN and ±Inf come back as null in an ordinary reply,
// and the connection stays usable (json.Marshal used to fail inside
// WriteResponse, which serveConn treated as a dead socket).
func TestNonFiniteFloatKeepsConnection(t *testing.T) {
	c := dialClient(t, startTestServer(t))
	for _, q := range []string{"SELECT sqrt(-1) AS x", "SELECT ln(0) AS x", "SELECT exp(1000) AS x"} {
		resp := c.must(fmt.Sprintf(`{"op":"query","q":%q}`, q))
		if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 || resp.Rows[0][0] != nil {
			t.Fatalf("%s: rows = %v, want one null", q, resp.Rows)
		}
		if pong := c.must(`{"op":"ping"}`); pong.Session == 0 {
			t.Fatalf("%s: ping after the query got %+v", q, pong)
		}
	}
}
