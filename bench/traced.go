package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/render"
	"repro/internal/server"
	"repro/internal/wal"
)

// runTraced is a --trace 1 run: a socket run of a fixed number of drags
// (for the client-observed numbers the layers are compared with), the same
// op sequence replayed in-process with spans around the calls into each
// layer, the replay again without spans (the tracing overhead), and the
// isolated drives of single layers. Engine-internal stages come from the
// existing stats/obs surface, read before and after the replay.
func runTraced(e *env, w *workload, n int, seed int64, quick bool, rep *report) error {
	drags, warm, reps := w.traceDrags, warmupDrags, 5
	if quick {
		drags, warm, reps = 20, 3, 2
	}
	rows := generateRows(n, seed)
	or := newOracle(rows)

	// Socket arm: default server, then (brush_cube) the -no-obs ablation.
	opts := socketOpts{w: w, n: n, seed: seed, quick: quick, setups: 1, warmup: warm, drags: drags}
	sock, err := runSocket(e, opts, rows, or)
	if err != nil {
		return err
	}
	rep.absorb(sock)
	socketMove := sortedCopy(sock.timed.byOp[opMove])
	rep.set("frame_rtt_p50_us", median(sock.timed.frame), len(sock.timed.frame))
	rep.set("query_rtt_mean_ms", mean(sock.timed.byOp[opQuery])/1e3, len(sock.timed.byOp[opQuery]))
	rep.set("undo_rtt_p50_us", median(sock.timed.byOp[opUndo]), len(sock.timed.byOp[opUndo]))
	rep.set("recovery_s", sock.recoveryS, 1)
	rep.set("resume_ms", sock.resumeMs, 1)
	rep.set("move_rtt_p99_us", percentile(socketMove, 99), len(socketMove))
	rep.set("first_drag_ms", sock.firstDragMs[0], 1)
	if w.name == "brush_cube" {
		opts.noObs = true
		dark, err := runSocket(e, opts, rows, or)
		if err != nil {
			return err
		}
		rep.absorb(dark)
		rep.set("obs.off_speedup", ratio(eventsPerSecond(&dark.timed), eventsPerSecond(&sock.timed)), dark.timed.events)
	}

	// In-process arm.
	program := w.programText()
	var tuples []relation.Tuple
	if w.program {
		program = programWithData(rows)
	} else {
		tuples = experiments.IVMSalesTuples(n, seed)
	}
	start := time.Now()
	if _, err := parser.Parse(program); err != nil {
		return err
	}
	rep.set("parser.program_parse_ms", ms(time.Since(start)), 1)

	dataDir := filepath.Join(e.tmp, "inproc-data")
	srv, err := newServer(w, program, tuples, dataDir)
	if err != nil {
		return err
	}
	start = time.Now()
	sess, err := srv.Attach()
	if err != nil {
		return err
	}
	rep.set("server.attach_ms", ms(time.Since(start)), 1)
	start = time.Now()
	second, err := srv.Attach() // while the first lives: ShareGroup reuse
	if err != nil {
		return err
	}
	rep.set("server.attach_second_ms", ms(time.Since(start)), 1)
	second.Detach()

	p := &inproc{srv: srv, sess: sess}
	drv := newDriver(w, p, or, seed, quick)
	drv.warmup(warm)

	before, err := snapshot(p)
	if err != nil {
		return err
	}
	p.rec = &recorder{origin: time.Now(), spans: make([]span, 0, drags*eventsPerDrag*30)}
	p.by = [numOps]lineBytes{}
	var traced samples
	for i := 0; i < drags; i++ {
		drv.drag(&traced, false)
	}
	rec := p.rec
	p.rec = nil
	reportBytes(rep, p)
	after, err := snapshot(p)
	if err != nil {
		return err
	}
	var untraced samples
	for i := 0; i < drags; i++ {
		drv.drag(&untraced, false)
	}
	drv.verifyCharts()
	rep.set("bench.trace_overhead_ratio", ratio(mean(traced.byOp[opMove]), mean(untraced.byOp[opMove])), len(traced.byOp[opMove]))

	spans := analyse(rec.spans)
	reportSpans(rep, spans, socketMove)
	reportEngine(rep, w, before, after)

	// Resume: evict the session, then rebuild it from its journal.
	st := srv.Stats()
	rep.set("server.journal_entries", float64(st.JournalEntries), 1)
	rep.set("server.journal_bytes", float64(st.JournalBytes), 1)
	rep.set("server.shared_bytes", float64(st.SharedBytes), 1)
	rep.set("server.private_bytes_per_session", ratio(float64(st.PrivateBytesTotal), float64(st.Sessions)), 1)
	rep.set("core.store_bytes", float64(srv.Base().ApproxBytes()), 1)
	token := sess.Token()
	srv.EvictIdle(0)
	start = time.Now()
	if p.sess, err = srv.Resume(token); err != nil {
		return err
	}
	rep.set("server.resume_ms_per_kevent", ratio(ms(time.Since(start)), float64(st.JournalEntries)/1e3), int(st.JournalEntries))
	drv.verifyCharts()
	rep.counts.add(p.opCounts)

	// Isolated drives of single layers, over the replay's event stream.
	stream := eventStream(seed, warm+drags)
	timedFrom := warm * eventsPerDrag
	engineUs, tileBytes, err := driveEngine(w, program, tuples, stream, timedFrom)
	if err != nil {
		return err
	}
	// A session's tiles live in the server's ShareGroup, which reports no
	// tile bytes of its own; the single-tenant twin holds the same tiles.
	rep.set("exec.tile_bytes", float64(tileBytes), 1)
	rep.set("server.overhead_us_p50", median(spans.byName["server.event"])-median(engineUs), len(engineUs))
	recognizeUs, err := driveRecognizer(w.programText(), stream)
	if err != nil {
		return err
	}
	rep.set("events.recognize_us_p50", median(recognizeUs), len(recognizeUs))
	marksUs, err := driveMarks(p.sess, reps*200)
	if err != nil {
		return err
	}
	rep.set("render.marks_us_p50", median(marksUs), len(marksUs))
	if err := driveQueries(rep, srv.Base(), reps); err != nil {
		return err
	}

	if w.durable {
		if err := srv.Shutdown(); err != nil {
			return err
		}
		start = time.Now()
		log, recovery, err := wal.Open(wal.Options{Dir: dataDir, Policy: wal.SyncAlways})
		if err != nil {
			return err
		}
		if err := core.NewStore(0).ReplayWAL(recovery); err != nil {
			return err
		}
		rep.set("wal.recover_ms", ms(time.Since(start)), 1)
		rep.set("wal.records_recovered", float64(recovery.Report.Records), 1)
		if err := log.Close(); err != nil {
			return err
		}
	}

	out := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(map[string]any{"workload": w.name, "n": n, "seed": seed, "spans": rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+w.name+".json"), blob, 0o644)
}

// engineState is the stats/obs surface read around the traced replay.
type engineState struct {
	stats     core.Stats
	session   obs.Snapshot
	serverObs obs.Snapshot
	wal       wal.DurabilityStats
}

func snapshot(p *inproc) (engineState, error) {
	st, err := p.sess.Stats()
	if err != nil {
		return engineState{}, err
	}
	so, err := p.sess.Obs()
	if err != nil {
		return engineState{}, err
	}
	s := engineState{stats: st, session: so, serverObs: p.srv.ObsSnapshot()}
	if log := p.srv.Log(); log != nil {
		s.wal = log.Stats()
	}
	return s, nil
}

// histDelta is what a stage histogram gained between two snapshots, as a
// sum in µs and a count. Means are sum/count: the log2 histograms'
// quantiles are only factor-of-2 accurate.
func histDelta(a, b obs.Snapshot, name string) (sumUs float64, count float64) {
	return b.Histograms[name].Sum - a.Histograms[name].Sum, float64(b.Histograms[name].Count - a.Histograms[name].Count)
}

// reportEngine derives the core, exec, render and wal metrics from the
// engine's own counters and stage histograms over the traced replay.
func reportEngine(rep *report, w *workload, a, b engineState) {
	events := float64(b.stats.EventsFed - a.stats.EventsFed)
	per := func(name string, x, y int64) { rep.set(name, ratio(float64(y-x), events), int(events)) }
	stage := func(metric, hist string, from, to obs.Snapshot) (sum float64) {
		sum, count := histDelta(from, to, hist)
		rep.set(metric, ratio(sum, count), int(count))
		return sum
	}
	eventSum := stage("core.event_us_mean", "dvms_event_seconds", a.session, b.session)
	staged := stage("core.commit_us_mean", "dvms_stage_commit_seconds", a.session, b.session)
	staged += stage("core.fallback_us_mean", "dvms_stage_delta_fallback_seconds", a.session, b.session)
	staged += stage("exec.delta_cube_us_mean", "dvms_stage_delta_cube_seconds", a.session, b.session)
	staged += stage("exec.delta_fused_us_mean", "dvms_stage_delta_fused_seconds", a.session, b.session)
	staged += stage("exec.delta_row_us_mean", "dvms_stage_delta_row_seconds", a.session, b.session)
	staged += stage("render.pass_us_mean", "dvms_stage_render_seconds", a.session, b.session)
	for _, h := range []string{"dvms_stage_recognize_seconds", "dvms_stage_prepare_seconds"} {
		sum, _ := histDelta(a.session, b.session, h)
		staged += sum
	}
	rep.set("core.unaccounted_ratio", 1-ratio(staged, eventSum), int(events))
	rep.set("core.prepare_ms_total", b.session.Histograms["dvms_stage_prepare_seconds"].Sum/1e3,
		int(b.session.Histograms["dvms_stage_prepare_seconds"].Count))

	per("core.full_fallbacks_per_event", int64(a.stats.FullFallbacks), int64(b.stats.FullFallbacks))
	per("core.view_recomputes_per_event", int64(a.stats.ViewRecomputes), int64(b.stats.ViewRecomputes))
	rep.set("core.delta_log_events", float64(b.stats.Versioning.DeltaLogEvents-a.stats.Versioning.DeltaLogEvents), 1)
	per("exec.cube_hits_per_event", a.stats.Cube.Hits, b.stats.Cube.Hits)
	per("exec.fused_applies_per_event", a.stats.Exec.FusedApplies, b.stats.Exec.FusedApplies)
	per("exec.batch_rows_per_event", a.stats.Exec.BatchRows, b.stats.Exec.BatchRows)
	per("exec.delta_rows_in_per_event", int64(a.stats.DeltaRowsIn), int64(b.stats.DeltaRowsIn))
	per("exec.delta_rows_out_per_event", int64(a.stats.DeltaRowsOut), int64(b.stats.DeltaRowsOut))
	per("render.passes_per_event", int64(a.stats.RenderPasses), int64(b.stats.RenderPasses))
	rep.set("exec.row_fallbacks", float64(b.stats.Exec.RowFallbacks), 1)
	rep.set("exec.cube_builds", float64(b.stats.Cube.Builds), 1)

	if w.durable {
		stage("wal.append_us_mean", "dvms_wal_append_seconds", a.serverObs, b.serverObs)
		stage("wal.fsync_us_mean", "dvms_wal_fsync_seconds", a.serverObs, b.serverObs)
		per("wal.fsyncs_per_event", a.wal.Fsyncs, b.wal.Fsyncs)
		per("wal.bytes_per_event", a.wal.BytesAppended, b.wal.BytesAppended)
		rep.set("wal.segments", float64(b.wal.SegmentsWritten), 1)
	}
}

// spanStats are the traced replay's spans, reduced: durations in µs by
// span name, and for requests also by op kind, with self times.
type spanStats struct {
	byName     map[string][]float64 // children by name, all kinds
	encodeRows []float64            // protocol.encode of relation and query responses
	encodeAck  []float64            // protocol.encode of the others
	request    map[string][]float64 // serve.request by kind
	self       map[string][]float64 // serve.request minus its children, by kind
	child      map[string]map[string][]float64
}

// analyse computes self time: a request's duration minus what its child
// spans cover.
func analyse(spans []span) spanStats {
	s := spanStats{byName: map[string][]float64{}, request: map[string][]float64{}, self: map[string][]float64{},
		child: map[string]map[string][]float64{}}
	covered := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	for i, sp := range spans {
		if sp.Kind == opNames[opOther] {
			continue // verification reads and stats: not part of the traffic
		}
		d := float64(sp.End-sp.Start) / 1e3
		if sp.Parent < 0 {
			s.request[sp.Kind] = append(s.request[sp.Kind], d)
			s.self[sp.Kind] = append(s.self[sp.Kind], d-float64(covered[i])/1e3)
			continue
		}
		s.byName[sp.Name] = append(s.byName[sp.Name], d)
		if s.child[sp.Kind] == nil {
			s.child[sp.Kind] = map[string][]float64{}
		}
		s.child[sp.Kind][sp.Name] = append(s.child[sp.Kind][sp.Name], d)
		if sp.Name == "protocol.encode" {
			if sp.Kind == opNames[opRelation] || sp.Kind == opNames[opQuery] {
				s.encodeRows = append(s.encodeRows, d)
			} else {
				s.encodeAck = append(s.encodeAck, d)
			}
		}
	}
	return s
}

// reportSpans emits the serve, protocol and server metrics and shows that
// the layers' self times plus the wire gap add up to the socket round trip
// of a MOUSE_MOVE.
func reportSpans(rep *report, s spanStats, socketMove []float64) {
	p50 := func(name string, v []float64) float64 {
		m := median(v)
		rep.set(name, m, len(v))
		return m
	}
	p50("protocol.decode_us_p50", s.byName["protocol.decode"])
	p50("protocol.encode_us_p50", s.encodeAck)
	p50("protocol.encode_relation_us_p50", s.encodeRows)
	p50("server.feed_us_p50", s.byName["server.event"])
	p50("server.relation_us_p50", s.child[opNames[opRelation]]["server.relation"])
	p50("server.undo_us_p50", s.byName["server.undo"])
	queries := s.child[opNames[opQuery]]["server.query"]
	rep.set("server.query_ms_mean", mean(queries)/1e3, len(queries))

	move := opNames[opMove]
	socket := percentile(socketMove, 50)
	inproc := median(s.request[move])
	gap := socket - inproc
	rep.set("serve.wire_gap_us_p50", gap, len(socketMove))
	parts := []struct {
		name string
		us   float64
	}{
		{"protocol.decode", median(s.child[move]["protocol.decode"])},
		{"server.event", median(s.child[move]["server.event"])},
		{"protocol.encode", median(s.child[move]["protocol.encode"])},
		{"serve.request (self)", median(s.self[move])},
		{"serve.wire_gap", gap},
	}
	var sum float64
	rep.notef("MOUSE_MOVE round trip by layer (p50 self time, n=%d in-process, n=%d socket):", len(s.request[move]), len(socketMove))
	for _, part := range parts {
		sum += part.us
		rep.notef("  %-22s %10.2f us", part.name, part.us)
	}
	rep.notef("  %-22s %10.2f us = %.1f%% of socket move_rtt_p50_us %.2f", "sum", sum, 100*ratio(sum, socket), socket)
	rep.set("bench.accounted_ratio", ratio(sum, socket), len(socketMove))
}

// reportBytes emits the line bytes each way per event, and the response
// bytes of one frame: an event plus five relation reads.
func reportBytes(rep *report, p *inproc) {
	var in, out int64
	var events int
	for _, kind := range []opKind{opPress, opMove, opRelease} {
		in += p.by[kind].in
		out += p.by[kind].out
		events += p.by[kind].n
	}
	rep.set("protocol.bytes_in_per_event", ratio(float64(in), float64(events)), events)
	rep.set("protocol.bytes_out_per_event", ratio(float64(out), float64(events)), events)
	if reads := p.by[opRelation]; reads.n > 0 {
		perFrame := ratio(float64(out), float64(events)) + float64(len(frameViews))*ratio(float64(reads.out), float64(reads.n))
		rep.set("protocol.bytes_out_per_frame", perFrame, reads.n/len(frameViews))
	}
}

// eventStream is the event sequence the driver produces for `drags` drags at
// this seed: the same draws in the same order.
func eventStream(seed int64, drags int) []events.Event {
	rng := rand.New(rand.NewSource(seed))
	t := int64(2)
	var out []events.Event
	for i := 0; i < drags; i++ {
		m0 := rng.Intn(8)
		for k := 0; k < eventsPerDrag; k++ {
			_, typ, x := dragEvent(m0, k)
			out = append(out, events.Mouse(typ, t, x, 45))
			t++
		}
	}
	return out
}

// driveEngine feeds the stream to a single-tenant core.Engine over the same
// program and data; Session.Feed minus this is the server's overhead. It
// also returns the bytes of the engine's cube tiles.
func driveEngine(w *workload, program string, tuples []relation.Tuple, stream []events.Event, timedFrom int) ([]float64, int64, error) {
	eng := core.New(core.Config{})
	defer eng.Close()
	if err := eng.LoadProgram(program); err != nil {
		return nil, 0, err
	}
	if !w.program {
		if err := eng.InsertRows("Sales", tuples); err != nil {
			return nil, 0, err
		}
	}
	eng.Commit()
	var took []float64
	for i, ev := range stream {
		start := time.Now()
		if _, err := eng.FeedEvent(ev); err != nil {
			return nil, 0, err
		}
		if i >= timedFrom {
			took = append(took, us(time.Since(start)))
		}
	}
	return took, eng.StatsSnapshot().Cube.TileBytes, nil
}

// driveRecognizer feeds the stream to the program's compiled EVENT
// statement alone.
func driveRecognizer(program string, stream []events.Event) ([]float64, error) {
	stmts, err := parser.Parse(program)
	if err != nil {
		return nil, err
	}
	for _, st := range stmts {
		ev, ok := st.(*parser.EventStmt)
		if !ok {
			continue
		}
		rz, err := events.Compile(ev, expr.NewRegistry())
		if err != nil {
			return nil, err
		}
		took := make([]float64, 0, len(stream))
		for _, e := range stream {
			start := time.Now()
			if _, err := rz.Feed(e); err != nil {
				return nil, err
			}
			took = append(took, us(time.Since(start)))
		}
		return took, nil
	}
	return nil, fmt.Errorf("program has no EVENT statement")
}

// driveMarks rasterizes the BARS view with render.RenderMarks directly,
// onto a framebuffer of the server's default size.
func driveMarks(sess *server.Session, reps int) ([]float64, error) {
	bars, err := sess.Relation("BARS")
	if err != nil {
		return nil, err
	}
	mt, err := render.ParseMarkType("rect")
	if err != nil {
		return nil, err
	}
	img := render.NewImage(400, 300)
	took := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		img.Clear()
		start := time.Now()
		if err := render.RenderMarks(img, bars, mt); err != nil {
			return nil, err
		}
		took = append(took, us(time.Since(start)))
	}
	return took, nil
}

// driveQueries runs each ad-hoc class through parser, planner and batch
// executor separately, against the shared base store.
func driveQueries(rep *report, base *core.Engine, reps int) error {
	ex := &exec.Executor{Cat: base.Store(), Funcs: base.Funcs()}
	var parseUs, planUs []float64
	for _, q := range adhoc {
		var runMs []float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			ast, err := parser.ParseQuery(q.q)
			if err != nil {
				return err
			}
			parsed := time.Now()
			node, err := plan.Build(ast, ex.Cat)
			if err != nil {
				return err
			}
			node = plan.Optimize(node, ex.Funcs)
			planned := time.Now()
			prep, err := exec.Prepare(node, ex.Funcs)
			if err != nil {
				return err
			}
			if _, err := ex.RunPrepared(prep); err != nil {
				return err
			}
			parseUs = append(parseUs, us(parsed.Sub(start)))
			planUs = append(planUs, us(planned.Sub(parsed)))
			runMs = append(runMs, ms(time.Since(planned)))
		}
		rep.set("exec.query_run_ms_p50."+q.class, median(runMs), len(runMs))
	}
	rep.set("parser.query_parse_us_p50", median(parseUs), len(parseUs))
	rep.set("plan.build_us_p50", median(planUs), len(planUs))
	return nil
}
