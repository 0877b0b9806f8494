package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
)

// socketOpts is one run against real dvms-serve processes: set-up (spawn,
// attach, warm-up) `setups` times, then a timed phase on the last server,
// verification reads, and teardown.
type socketOpts struct {
	w      *workload
	n      int
	seed   int64
	quick  bool
	setups int
	warmup int
	// The timed phase lasts `seconds`, or exactly `drags` drags when drags
	// is not 0.
	seconds time.Duration
	drags   int
	noObs   bool // -no-obs: the ablation arm, for obs.off_speedup
}

type socketResult struct {
	setupS, attachMs, firstDragMs []float64 // one per set-up
	timed                         samples   // pooled over the timed phase
	segments                      []samples // the timed phase in consecutive parts
	peakRSSMB                     float64
	recoveryS, resumeMs           float64 // brush_durable
	counts                        opCounts
	guard                         error // the run took the wrong executor path
}

// serverArgs is the dvms-serve command line of the workload: shipped
// defaults except for what the workload is about.
func (o *socketOpts) serverArgs(programPath, dataDir string) []string {
	var args []string
	if o.w.program {
		args = []string{"-program", programPath}
	} else {
		args = []string{"-workload", "ivm", "-n", strconv.Itoa(o.n), "-seed", strconv.FormatInt(o.seed, 10)}
	}
	if o.w.durable {
		// always, not the default interval, so that WAL cost is on the
		// blocking path and every acknowledged event survives SIGKILL.
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	if o.noObs {
		args = append(args, "-no-obs")
	}
	return args
}

// readStats is the stats op: the session engine's counters, which the path
// guards compare around the timed phase.
func readStats(tg target) (core.Stats, error) {
	resp, _ := tg.do(opOther, []byte(`{"op":"stats"}`+"\n"))
	var r protocol.Response
	if err := json.Unmarshal(resp, &r); err != nil || r.Stats == nil {
		return core.Stats{}, fmt.Errorf("stats op failed: %q (%s)", resp, tg.counts().firstFailure)
	}
	return *r.Stats, nil
}

// checkPath is the path guard: a run on the wrong executor path is invalid,
// not slow. brush_delta must never touch the cube and must stream through
// the fused operators; the others must answer the timed events from tiles
// without a new cube fallback.
func checkPath(w *workload, before, after core.Stats) error {
	hits := after.Cube.Hits - before.Cube.Hits
	fallbacks := after.Cube.Fallbacks - before.Cube.Fallbacks
	fused := after.Exec.FusedApplies - before.Exec.FusedApplies
	if w.program {
		if after.Cube.Hits != 0 || fused == 0 || after.Exec.RowFallbacks != 0 {
			return fmt.Errorf("brush_delta off the fused path: cube_hits=%d fused_applies=+%d row_fallbacks=%d",
				after.Cube.Hits, fused, after.Exec.RowFallbacks)
		}
		return nil
	}
	if hits == 0 || fallbacks != 0 {
		return fmt.Errorf("%s off the cube path: cube_hits=+%d cube_fallbacks=+%d", w.name, hits, fallbacks)
	}
	return nil
}

// runSocket performs the run. rows and or are the generated input and its
// oracle; they are made once per invocation, outside set-up time.
func runSocket(e *env, o socketOpts, rows []salesRow, or *oracle) (*socketResult, error) {
	res := &socketResult{}
	programPath := filepath.Join(e.tmp, "program.devil")
	if o.w.program {
		if err := os.WriteFile(programPath, []byte(programWithData(rows)), 0o644); err != nil {
			return nil, err
		}
	}
	var (
		srv     *serverProc
		cl      *client
		drv     *driver
		dataDir string
		token   string
	)
	retire := func() { // hang up, keep the tally, kill the server
		res.counts.add(cl.opCounts)
		cl.conn.Close()
		srv.kill()
	}
	for k := 0; k < o.setups; k++ {
		if srv != nil { // only the last set-up's server is measured further
			retire()
		}
		tag := fmt.Sprintf("serve-%d", k)
		dataDir = filepath.Join(e.tmp, tag+"-data")
		var err error
		if srv, err = e.start(tag, o.serverArgs(programPath, dataDir)...); err != nil {
			return nil, err
		}
		connect := time.Now()
		if cl, err = dial(srv.addr); err != nil {
			return nil, err
		}
		pong, _ := cl.do(opOther, []byte(`{"op":"ping"}`+"\n"))
		res.attachMs = append(res.attachMs, ms(time.Since(connect)))
		var r protocol.Response
		if json.Unmarshal(pong, &r) != nil || r.Token == "" {
			return nil, fmt.Errorf("no session token in ping response %q (%s)", pong, cl.firstFailure)
		}
		token = r.Token
		drv = newDriver(o.w, cl, or, o.seed, o.quick)
		first := drv.warmup(o.warmup)
		res.firstDragMs = append(res.firstDragMs, ms(first))
		res.setupS = append(res.setupS, time.Since(srv.started).Seconds())
	}
	defer func() { cl.conn.Close() }() // on the error returns below

	before, err := readStats(cl)
	if err != nil {
		return nil, err
	}
	segments := countedSegments
	if o.drags == 0 {
		segments = max(1, int(o.seconds/time.Second))
	}
	start := time.Now()
	for seg := 1; seg <= segments && !cl.dead; seg++ {
		var s samples
		for done := false; !done && !cl.dead; {
			drv.drag(&s, false)
			if o.drags > 0 {
				done = res.timed.drags+s.drags >= o.drags*seg/segments
			} else {
				done = time.Since(start) >= o.seconds*time.Duration(seg)/time.Duration(segments)
			}
		}
		res.segments = append(res.segments, s)
		res.timed.merge(&s)
	}
	drv.verifyCharts()
	after, err := readStats(cl)
	if err != nil {
		return nil, err
	}
	res.guard = checkPath(o.w, before, after)
	if res.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}

	if o.w.durable {
		// Crash: SIGKILL keeps the OS cache, so this proves process-crash
		// durability only. Every event above was acknowledged after its
		// fsync, so the resumed state must equal the last acknowledged one.
		retire()
		if srv, err = e.start("serve-recovered", o.serverArgs(programPath, dataDir)...); err != nil {
			return nil, err
		}
		res.recoveryS = srv.listening.Seconds()
		if cl, err = dial(srv.addr); err != nil {
			return nil, err
		}
		drv.tg = cl
		_, took := cl.do(opOther, []byte(`{"op":"resume","token":"`+token+`"}`+"\n"))
		res.resumeMs = ms(took)
		drv.verifyCharts()
		for i := 0; i < min(resumedDrags, max(res.timed.drags, 1)); i++ {
			drv.drag(nil, false)
		}
		drv.verifyCharts()
	}
	retire()
	return res, nil
}
