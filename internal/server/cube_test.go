package server_test

// Shared cube tiles under the session server. The cube crossfilter's charts
// are all (brush-bin × group) tiled, and the tiles hang off the Sales build
// side — shared state. N sessions brushing the same program must share one
// tile build per chart, each answering its own brush moves from the shared
// tiles; under -race this file is the synchronization gate for concurrent
// tile reads against single-writer tile maintenance.

import (
	"bytes"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/server"
)

// newCubeServer builds a server over the cube crossfilter with n sales rows
// loaded through the single-writer path. Session framebuffers use the cube
// program's 320×300 viewport so images compare 1:1 against NewCubeEngine
// oracles.
func newCubeServer(t *testing.T, n int, seed int64, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Engine.Width == 0 {
		cfg.Engine.Width, cfg.Engine.Height = 320, 300
	}
	srv, err := server.New(cfg, experiments.BuildCubeProgram())
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(n, seed)); err != nil {
		t.Fatalf("load sales: %v", err)
	}
	return srv
}

// cubeViews are the per-session chart relations compared against oracles.
var cubeViews = []string{"C", "selected_months", "FILT_region", "FILT_segment",
	"FILT_month", "FILT_weekday", "BARS"}

// TestSharedCubeTilesBuiltOnce pins the N-sessions-one-build contract: every
// chart's tile set is instantiated once in the share registry, later sessions
// attach to it, and each session's brushing registers tile hits of its own.
func TestSharedCubeTilesBuiltOnce(t *testing.T) {
	const sessions = 4
	srv := newCubeServer(t, 2000, 7, server.Config{})
	for i := 0; i < sessions; i++ {
		sess, err := srv.Attach()
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		if _, err := sess.FeedStream(experiments.CubeDragStream(2)); err != nil {
			t.Fatalf("brush %d: %v", i, err)
		}
		st, err := sess.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Cube.Hits == 0 {
			t.Fatalf("session %d brushed without tile hits: %+v", i, st.Cube)
		}
		if st.Cube.Fallbacks != 0 {
			t.Fatalf("session %d charts fell back: %+v", i, st.Cube)
		}
	}
	st := srv.Stats()
	// One shared state per chart's tile set (plus any shared join sides,
	// e.g. the BARS axis side) — each built exactly once.
	if st.SharedSides < len(experiments.IVMDims) {
		t.Fatalf("want ≥%d shared states (one tile set per chart), have %d",
			len(experiments.IVMDims), st.SharedSides)
	}
	if int(st.Share.Builds) != st.SharedSides {
		t.Errorf("shared states built %d times for %d distinct sides; want exactly once each",
			st.Share.Builds, st.SharedSides)
	}
	if wantReuses := int64((sessions - 1) * len(experiments.IVMDims)); st.Share.Reuses < wantReuses {
		t.Errorf("reuses = %d, want >= %d (later sessions must attach, not rebuild)",
			st.Share.Reuses, wantReuses)
	}
	if st.SharedBytes == 0 {
		t.Error("resident shared tiles should count toward SharedBytes")
	}
}

// TestConcurrentSessionCubeBrushRace drives every session from its own
// goroutine — brushing over the shared tiles, reading charts, snapshotting
// stats — while the single writer ingests Sales batches (tile maintenance)
// and a janitor polls server stats. Run under -race this is the shared-tile
// synchronization gate; afterwards each session must match an oracle that
// saw the final data, and must have answered brush moves from the tiles.
func TestConcurrentSessionCubeBrushRace(t *testing.T) {
	const (
		nSessions = 6
		baseRows  = 500
		perStream = 120
	)
	srv := newCubeServer(t, baseRows, 5, server.Config{})
	var sessions []*server.Session
	var streams []events.Stream
	for i := 0; i < nSessions; i++ {
		sess, err := srv.Attach()
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		var stream events.Stream
		for k := 0; k < perStream; k++ {
			stream = append(stream, randomEvent(rng, int64(k)))
		}
		streams = append(streams, stream)
	}
	const writerBatches = 3
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k, ev := range streams[i] {
				if _, err := sessions[i].Feed(ev); err != nil {
					t.Errorf("session %d event %d: %v", i, k, err)
					return
				}
				if k%10 == 0 {
					if _, err := sessions[i].Relation("FILT_region"); err != nil {
						t.Errorf("session %d read: %v", i, err)
						return
					}
					if _, err := sessions[i].Stats(); err != nil {
						t.Errorf("session %d stats: %v", i, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < writerBatches; b++ {
			if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(25, int64(9100+b))); err != nil {
				t.Errorf("writer batch %d: %v", b, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			_ = srv.Stats()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// Post-hoc determinism: an oracle with the final base data replaying a
	// session's full stream must land on exactly that session's state.
	for i := range sessions {
		oracle, err := experiments.NewCubeEngine(baseRows, 5, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < writerBatches; b++ {
			if err := oracle.InsertRows("Sales", experiments.IVMSalesTuples(25, int64(9100+b))); err != nil {
				t.Fatal(err)
			}
		}
		oracle.Commit()
		if _, err := oracle.FeedStream(streams[i]); err != nil {
			t.Fatal(err)
		}
		for _, name := range cubeViews {
			got, err := sessions[i].Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRelation(t, fmt.Sprintf("concurrent session %d %s", i, name), got, want)
		}
		si, oi := sessions[i].Image(), oracle.Image()
		for p := range oi.Pix {
			if si.Pix[p] != oi.Pix[p] {
				t.Fatalf("session %d: pixel %d,%d diverges", i, p%oi.W, p/oi.W)
			}
		}
		st, err := sessions[i].Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Cube.Hits == 0 {
			t.Fatalf("session %d never hit the shared tiles: %+v", i, st.Cube)
		}
	}
}

// TestConcurrentFirstAttach races eight first attaches at a fresh server —
// all of them wanting tiles nobody has built yet, at a size the build splits
// across goroutines — against a writer ingesting Sales. Every tile set must
// still be built exactly once, every session must answer like an engine that
// saw the final data, the attach trace must account for every attach and
// every build, and the build's goroutines must all have gone home.
func TestConcurrentFirstAttach(t *testing.T) {
	const (
		attachers     = 8
		baseRows      = 50000
		writerBatches = 4
	)
	srv := newCubeServer(t, baseRows, 11, server.Config{})
	var logs bytes.Buffer
	srv.SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))
	baseline := runtime.NumGoroutine()

	sessions := make([]*server.Session, attachers)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := srv.Attach()
			if err != nil {
				t.Errorf("attach %d: %v", i, err)
			}
			sessions[i] = sess
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < writerBatches; b++ {
			if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(200, int64(4200+b))); err != nil {
				t.Errorf("writer batch %d: %v", b, err)
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the attaches: the tile build left some behind", runtime.NumGoroutine(), baseline)
		}
	}

	st := srv.Stats()
	if st.SharedSides < len(experiments.IVMDims) || int(st.Share.Builds) != st.SharedSides {
		t.Fatalf("%d shared states built %d times, want %d or more, each built once", st.SharedSides, st.Share.Builds, len(experiments.IVMDims))
	}
	oracle, err := experiments.NewCubeEngine(baseRows, 11, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < writerBatches; b++ {
		if err := oracle.InsertRows("Sales", experiments.IVMSalesTuples(200, int64(4200+b))); err != nil {
			t.Fatal(err)
		}
	}
	oracle.Commit()
	drag := experiments.CubeDragStream(1)
	if _, err := oracle.FeedStream(drag); err != nil {
		t.Fatal(err)
	}
	for i, sess := range sessions {
		if _, err := sess.FeedStream(drag); err != nil {
			t.Fatalf("session %d brush: %v", i, err)
		}
		for _, name := range cubeViews {
			got, err := sess.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRelation(t, fmt.Sprintf("session %d %s", i, name), got, want)
		}
	}

	snap := srv.ObsSnapshot()
	if n := snap.Histograms["dvms_attach_seconds"].Count; n != attachers {
		t.Errorf("dvms_attach_seconds counts %d attaches, want %d", n, attachers)
	}
	if n := snap.Histograms["dvms_tile_build_seconds"].Count; n != int64(len(experiments.IVMDims)) {
		t.Errorf("dvms_tile_build_seconds counts %d builds, want %d (one per chart)", n, len(experiments.IVMDims))
	}
	if n := snap.Counters["dvms_tile_build_rows_total"]; n < int64(len(experiments.IVMDims)*baseRows) || snap.Gauges["dvms_tile_build_workers"] < 1 {
		t.Errorf("dvms_tile_build_rows_total %d, dvms_tile_build_workers %v: want at least %d rows on at least one goroutine", n, snap.Gauges["dvms_tile_build_workers"], len(experiments.IVMDims)*baseRows)
	}
	var rows, traced int
	for _, line := range strings.Split(logs.String(), "\n") {
		if !strings.Contains(line, `msg="session attached"`) {
			continue
		}
		traced++
		for _, key := range []string{"attach_ms=", "tile_build_ms=", "fact_rows=", "workers="} {
			if !strings.Contains(line, key) {
				t.Errorf("attach log line lacks %s: %s", key, line)
			}
		}
		var n int
		if _, err := fmt.Sscanf(line[strings.Index(line, "fact_rows="):], "fact_rows=%d", &n); err == nil {
			rows += n
		}
	}
	// Each chart's build folded the whole fact relation as it stood then.
	if traced != attachers || rows < len(experiments.IVMDims)*baseRows {
		t.Errorf("%d attach lines accounting for %d folded rows, want %d lines and at least %d rows", traced, rows, attachers, len(experiments.IVMDims)*baseRows)
	}
}
