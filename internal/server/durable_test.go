package server_test

// Durable-server tests: session resume after eviction (in-memory journals),
// full restart recovery over a fault-injection filesystem, checkpoint
// restatement of journals across segment rotation, and mid-interaction crash
// resume.

import (
	"bytes"
	"log/slog"
	"slices"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/render"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// sessionFrame is the observable private state of one session: the rows of
// every private view plus a copy of the framebuffer.
type sessionFrame struct {
	rels   map[string][]string
	pixels []render.RGBA
}

var ivmPrivateViews = []string{"c", "selected_months", "filt_region", "ranked_sel", "bars"}

func captureSessionFrame(t *testing.T, sess *server.Session) sessionFrame {
	t.Helper()
	f := sessionFrame{rels: make(map[string][]string, len(ivmPrivateViews))}
	for _, name := range ivmPrivateViews {
		rel, err := sess.Relation(name)
		if err != nil {
			t.Fatalf("capture %s: %v", name, err)
		}
		f.rels[name] = sortedRows(t, rel)
	}
	f.pixels = slices.Clone(sess.Image().Pix)
	return f
}

func assertSameFrame(t *testing.T, label string, got, want sessionFrame) {
	t.Helper()
	for _, name := range ivmPrivateViews {
		g, w := got.rels[name], want.rels[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d rows, want %d\n got: %v\nwant: %v", label, name, len(g), len(w), g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: %s row %d differs\n got %s\nwant %s", label, name, i, g[i], w[i])
			}
		}
	}
	if len(got.pixels) != len(want.pixels) {
		t.Fatalf("%s: %d pixels, want %d", label, len(got.pixels), len(want.pixels))
	}
	for i := range got.pixels {
		if got.pixels[i] != want.pixels[i] {
			t.Fatalf("%s: pixel %d differs: got %v, want %v", label, i, got.pixels[i], want.pixels[i])
		}
	}
}

// TestEvictThenResumeRestoresSession is the lifecycle fix: eviction discards
// the session object but keeps its journal, so a reconnecting client resumes
// the exact private state it left. Explicit detach forgets the journal.
func TestEvictThenResumeRestoresSession(t *testing.T) {
	srv := newIVMServer(t, 500, 7, server.Config{})
	sess, err := srv.Attach()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.FeedStream(experiments.IVMBrushStream(3)); err != nil {
		t.Fatal(err)
	}
	token := sess.Token()
	if token == "" {
		t.Fatal("attached session has no token")
	}
	want := captureSessionFrame(t, sess)

	// Resume of a live session returns it (a reconnect without eviction).
	if got, err := srv.Resume(token); err != nil || got != sess {
		t.Fatalf("resume live session: got %v, %v", got, err)
	}

	if n := srv.EvictIdle(0); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, err := sess.Relation("bars"); err == nil {
		t.Fatal("evicted session handle should be dead")
	}

	got, err := srv.Resume(token)
	if err != nil {
		t.Fatalf("resume after eviction: %v", err)
	}
	if got.Token() != token {
		t.Fatalf("resumed token %q, want %q", got.Token(), token)
	}
	assertSameFrame(t, "resume after eviction", captureSessionFrame(t, got), want)

	// The resumed session keeps full function: undo rewinds its history.
	if err := got.Undo(); err != nil {
		t.Fatalf("undo on resumed session: %v", err)
	}

	st := srv.Stats()
	if st.Resumed != 1 || st.Evicted != 1 || st.Journals != 1 {
		t.Fatalf("stats %+v, want Resumed=1 Evicted=1 Journals=1", st)
	}

	if _, err := srv.Resume("no-such-token"); err == nil {
		t.Fatal("unknown token should fail")
	}
	got.Detach()
	if _, err := srv.Resume(token); err == nil {
		t.Fatal("explicit detach should forget the journal")
	}
}

// TestDurableRestartResumesSessions runs a full lifetime over an in-memory
// fault filesystem: load, two sessions with divergent histories (one with an
// undo), graceful shutdown, then a second server over the same directory
// resumes both sessions to the exact states their clients last saw; that
// server keeps logging, and a third over the same directory recovers the
// longer log.
func TestDurableRestartResumesSessions(t *testing.T) {
	fs := faultfs.NewMem()
	program := experiments.BuildIVMCrossfilterProgram()
	opts := wal.Options{Dir: "data", FS: fs, Policy: wal.SyncNever}

	srv, rep, err := server.NewDurable(server.Config{}, program, opts)
	if err != nil {
		t.Fatalf("fresh durable server: %v", err)
	}
	if rep.Records != 0 {
		t.Fatalf("fresh boot recovered %d records", rep.Records)
	}
	if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(400, 7)); err != nil {
		t.Fatal(err)
	}
	s1, err := srv.Attach()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.FeedStream(experiments.IVMBrushStream(2)); err != nil {
		t.Fatal(err)
	}
	s2, err := srv.Attach()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.FeedStream(experiments.IVMBrushStream(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.FeedStream(experiments.IVMBrushStream(1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Undo(); err != nil { // back to the 4-step selection
		t.Fatal(err)
	}
	f1, f2 := captureSessionFrame(t, s1), captureSessionFrame(t, s2)
	tok1, tok2 := s1.Token(), s2.Token()

	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := srv.Shutdown(); err != nil { // idempotent
		t.Fatalf("second shutdown: %v", err)
	}

	srv2, rep2, err := server.NewDurable(server.Config{}, program, opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !rep2.Clean() {
		t.Fatalf("graceful shutdown left a dirty log: %+v", rep2)
	}
	r1, err := srv2.Resume(tok1)
	if err != nil {
		t.Fatalf("resume s1: %v", err)
	}
	assertSameFrame(t, "s1 after restart", captureSessionFrame(t, r1), f1)
	r2, err := srv2.Resume(tok2)
	if err != nil {
		t.Fatalf("resume s2: %v", err)
	}
	assertSameFrame(t, "s2 after restart", captureSessionFrame(t, r2), f2)
	if st := srv2.Stats(); st.Resumed != 2 || st.Journals != 2 {
		t.Fatalf("stats %+v, want Resumed=2 Journals=2", st)
	}
	// Shared data recovered too: ingest keeps working on the new server.
	if err := srv2.InsertRows("Sales", experiments.IVMSalesTuples(10, 9)); err != nil {
		t.Fatalf("ingest after restart: %v", err)
	}

	// The recovered server keeps logging onto the same tail: more session
	// work, then a third lifetime over the same directory recovers the
	// mixed old-plus-new log.
	if _, err := r1.FeedStream(experiments.IVMBrushStream(3)); err != nil {
		t.Fatal(err)
	}
	if err := r2.Undo(); err != nil {
		t.Fatal(err)
	}
	g1, g2 := captureSessionFrame(t, r1), captureSessionFrame(t, r2)
	salesCount := func(sess *server.Session) string {
		t.Helper()
		rel, err := sess.Query("SELECT count(*) AS n FROM Sales")
		if err != nil {
			t.Fatal(err)
		}
		return rel.Rows[0][0].String()
	}
	sales := salesCount(r1)
	if err := srv2.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	srv3, rep3, err := server.NewDurable(server.Config{}, program, opts)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if !rep3.Clean() || rep3.Records <= rep2.Records {
		t.Fatalf("second restart report %+v, want clean and longer than %+v", rep3, rep2)
	}
	q1, err := srv3.Resume(tok1)
	if err != nil {
		t.Fatalf("resume s1 after second restart: %v", err)
	}
	assertSameFrame(t, "s1 after second restart", captureSessionFrame(t, q1), g1)
	q2, err := srv3.Resume(tok2)
	if err != nil {
		t.Fatalf("resume s2 after second restart: %v", err)
	}
	assertSameFrame(t, "s2 after second restart", captureSessionFrame(t, q2), g2)
	if got := salesCount(q1); got != sales {
		t.Fatalf("Sales after second restart has %s rows, want %s", got, sales)
	}
	if err := srv3.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashMidDragResumes crashes (no shutdown) with one session in
// the middle of a drag, after enough ingest to rotate segments. Recovery
// must start from a rotation checkpoint whose restated journals still know
// the session; the resumed session is mid-interaction and finishing the drag
// yields exactly what the never-crashed session sees.
func TestDurableCrashMidDragResumes(t *testing.T) {
	fs := faultfs.NewMem()
	program := experiments.BuildIVMCrossfilterProgram()
	opts := wal.Options{Dir: "data", FS: fs, Policy: wal.SyncNever, SegmentBytes: 8 << 10}

	srv, _, err := server.NewDurable(server.Config{}, program, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(100, 7)); err != nil {
		t.Fatal(err)
	}
	s1, err := srv.Attach()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.FeedStream(experiments.IVMBrushStream(2)); err != nil {
		t.Fatal(err)
	}
	tok := s1.Token()
	// Ingest batches until the log rotates at least twice — the session's
	// journal records now live before the newest checkpoint and survive only
	// because checkpoints restate journals.
	for i := int64(0); srv.Log().Stats().SegmentsWritten < 3; i++ {
		if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(40, 100+i)); err != nil {
			t.Fatal(err)
		}
		if i > 200 {
			t.Fatal("log never rotated; lower SegmentBytes")
		}
	}
	// Leave a drag in flight: down + moves, no mouse-up.
	open, steady, close := experiments.IVMBrushPhases(3)
	if _, err := s1.FeedStream(append(append(events.Stream{}, open...), steady...)); err != nil {
		t.Fatal(err)
	}

	cfs := fs.Clone() // crash: the original process just stops

	srv2, rep, err := server.NewDurable(server.Config{}, program,
		wal.Options{Dir: "data", FS: cfs, Policy: wal.SyncNever, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	if rep.CheckpointCommits == 0 {
		t.Fatalf("recovery did not start at a rotation checkpoint: %+v", rep)
	}
	r1, err := srv2.Resume(tok)
	if err != nil {
		t.Fatalf("resume after crash: %v", err)
	}
	// Both sides finish the same drag; the recovered session must land on
	// the same state as the one that never crashed.
	if _, err := s1.FeedStream(close); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.FeedStream(close); err != nil {
		t.Fatalf("finish drag on resumed session: %v", err)
	}
	assertSameFrame(t, "crash mid-drag", captureSessionFrame(t, r1), captureSessionFrame(t, s1))
}

// TestDurableRetentionKeepsTwoSegments drags one session through enough
// rotations that, were old segments kept, the directory would hold five or
// more. Rotation deletes every segment older than the previous checkpoint
// segment, so at most two remain, and a crash still resumes the session to
// exactly what the never-crashed server shows.
func TestDurableRetentionKeepsTwoSegments(t *testing.T) {
	fs := faultfs.NewMem()
	program := experiments.BuildIVMCrossfilterProgram()
	opts := wal.Options{Dir: "data", FS: fs, Policy: wal.SyncNever, SegmentBytes: 8 << 10}

	srv, _, err := server.NewDurable(server.Config{}, program, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InsertRows("Sales", experiments.IVMSalesTuples(100, 7)); err != nil {
		t.Fatal(err)
	}
	s1, err := srv.Attach()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; srv.Log().Stats().SegmentsWritten < 5; i++ {
		if _, err := s1.FeedStream(experiments.IVMBrushStream(1 + i%4)); err != nil {
			t.Fatal(err)
		}
		if i > 2000 {
			t.Fatal("log never rotated four times; lower SegmentBytes")
		}
	}
	names, err := fs.List("data")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) > 2 {
		t.Fatalf("%d segments written, %d still on disk %v; want at most 2",
			srv.Log().Stats().SegmentsWritten, len(names), names)
	}

	cfs := fs.Clone() // crash: the original process just stops
	srv2, rep, err := server.NewDurable(server.Config{}, program,
		wal.Options{Dir: "data", FS: cfs, Policy: wal.SyncNever, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	if rep.CheckpointCommits == 0 || !rep.Clean() {
		t.Fatalf("recovery did not start cleanly at a rotation checkpoint: %s", rep)
	}
	r1, err := srv2.Resume(s1.Token())
	if err != nil {
		t.Fatalf("resume after crash: %v", err)
	}
	assertSameFrame(t, "resume after rotations", captureSessionFrame(t, r1), captureSessionFrame(t, s1))
	// Both keep going from the same state.
	for _, sess := range []*server.Session{s1, r1} {
		if _, err := sess.FeedStream(experiments.IVMBrushStream(3)); err != nil {
			t.Fatal(err)
		}
	}
	assertSameFrame(t, "drag after resume", captureSessionFrame(t, r1), captureSessionFrame(t, s1))
}

// TestJournalGrowthWarnsOnce drives one session's journal past the 10,000
// entries at which the server warns that resume replay cost grows with it:
// the warning names that token exactly once, however far the journal grows.
func TestJournalGrowthWarnsOnce(t *testing.T) {
	srv := newIVMServer(t, 200, 7, server.Config{})
	var logs bytes.Buffer
	srv.SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))
	sess, err := srv.Attach()
	if err != nil {
		t.Fatal(err)
	}
	for srv.Stats().JournalEntries < 10100 {
		if _, err := sess.FeedStream(experiments.IVMBrushStream(7)); err != nil {
			t.Fatal(err)
		}
	}
	var warnings []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "session journal past growth threshold") {
			warnings = append(warnings, line)
		}
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "token="+sess.Token()) {
		t.Fatalf("after %d journal entries of token %s, growth warnings %q; want one naming it",
			srv.Stats().JournalEntries, sess.Token(), warnings)
	}
}
