package core

// Crash-recovery parity walls for the durable delta log (the acceptance
// criterion of the WAL subsystem): a store/engine with an attached log is
// driven by randomized streams; for every record boundary — and for torn
// offsets inside the final record — recovery from a clone of the disk at
// that point must reproduce the exact state a never-crashed oracle held
// there, including the whole @vnow/@tnow history.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/events"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// cloneOracle deep-copies an oracle store; the history snapshots are
// immutable after capture, so sharing them is safe.
func cloneOracle(o *oracleStore) *oracleStore {
	c := newOracleStore(o.maxHistory)
	c.restore(o.capture())
	c.history = append([]oracleSnap(nil), o.history...)
	c.txnHist = append([]oracleSnap(nil), o.txnHist...)
	c.inTxn = o.inTxn
	return c
}

const walTestDir = "data"

func openTestWAL(t *testing.T, fs faultfs.FS, segBytes int64) (*wal.Log, *wal.Recovery) {
	t.Helper()
	l, rec, err := wal.Open(wal.Options{Dir: walTestDir, FS: fs, Policy: wal.SyncNever, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	return l, rec
}

// lastSegPath returns the newest segment file in the test log directory.
func lastSegPath(t *testing.T, fs faultfs.FS) string {
	t.Helper()
	names, err := fs.List(walTestDir)
	if err != nil || len(names) == 0 {
		t.Fatalf("list segments: %v (%d names)", err, len(names))
	}
	return filepath.Join(walTestDir, names[len(names)-1])
}

// driveWALStoreStream drives one randomized mutation stream through a
// store/oracle pair whose store has a wal sink attached. boundary is called
// after every operation that seals a window or logs a control record.
//
// The stream is the delta-log parity stream with one constraint added: a
// RestoreVersion is always followed immediately by Commit, mirroring the
// engine's Undo. A bag mutation between a restore and its sealing boundary
// would not be journaled (the barrier window carries nothing — the restore
// control record reproduces it), and the engine never mutates there.
func driveWALStoreStream(t *testing.T, rng *rand.Rand, p *storePair, ops int, boundary func()) {
	t.Helper()
	refresh := func() []string {
		return append([]string(nil), p.s.Names()...)
	}
	tables := []string{"T", "U"}
	created := 0
	for op := 0; op < ops; op++ {
		name := tables[rng.Intn(len(tables))]
		switch k := rng.Intn(20); {
		case k < 7:
			p.insert(name, randRows(rng, 1+rng.Intn(3)))
		case k < 10:
			or := p.o.rels[keyOf(name)]
			if len(or.Rows) > 0 {
				del := make([]relation.Tuple, 0, 2)
				for i := 0; i < 1+rng.Intn(2); i++ {
					del = append(del, or.Rows[rng.Intn(len(or.Rows))])
				}
				p.deleteVals(name, del)
			}
		case k < 11:
			p.replace(name, randRows(rng, rng.Intn(5)))
		case k < 12:
			created++
			nm := fmt.Sprintf("N%d", created)
			p.put(nm, intSchema(), randRows(rng, rng.Intn(3)))
			tables = append(tables, nm)
		case k < 14:
			p.s.BeginTxn()
			p.o.beginTxn()
			boundary()
		case k < 16:
			p.s.MarkEvent()
			p.o.markEvent()
			boundary()
		case k < 18:
			p.s.Commit()
			p.o.commit()
			boundary()
		case k < 19:
			serr := p.s.Rollback()
			if !p.o.rollback() || serr != nil {
				t.Fatalf("op %d: rollback diverges (store err %v)", op, serr)
			}
			boundary()
			tables = refresh()
		default:
			off := 1 + rng.Intn(p.o.maxHistory+1)
			ook := p.o.restoreVersion(off)
			serr := p.s.RestoreVersion(off)
			if ook != (serr == nil) {
				t.Fatalf("op %d: restore(%d) mismatch: store err=%v oracle ok=%v", op, off, serr, ook)
			}
			if ook {
				boundary()
				p.s.Commit()
				p.o.commit()
				boundary()
				tables = refresh()
			}
		}
	}
}

// walStoreFrame pairs a disk image taken at one record boundary with the
// oracle's full state there and the byte length of the record that boundary
// appended.
type walStoreFrame struct {
	fs       *faultfs.Mem
	oracle   *oracleStore
	frameLen int64
}

// replayedStore recovers a fresh store from a disk image.
func replayedStore(t *testing.T, step string, fs *faultfs.Mem, maxHist, cpEvery int) (*Store, *wal.Recovery) {
	t.Helper()
	l, rec := openTestWAL(t, fs, 1<<30)
	defer l.Close()
	s := NewStore(maxHist)
	s.checkpointEvery = cpEvery
	if err := s.ReplayWAL(rec); err != nil {
		t.Fatalf("%s: replay: %v", step, err)
	}
	return s, rec
}

// TestWALStoreCrashEveryRecordBoundary is the store-level wall: the disk is
// cloned at every record boundary of a randomized stream; recovery from each
// clone must match the oracle's exact state there (every relation at every
// reachable @vnow-i/@tnow-j offset), and recovery from a clone whose final
// record is cut at a random torn offset must match the previous boundary.
func TestWALStoreCrashEveryRecordBoundary(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			maxHist := 2 + rng.Intn(4)
			cpEvery := 1 + rng.Intn(4)
			fs := faultfs.NewMem()
			l, rec0 := openTestWAL(t, fs, 1<<30)
			if rec0.Checkpoint != nil || len(rec0.Records) != 0 || !rec0.Report.Clean() {
				t.Fatalf("fresh log not empty: %+v", rec0.Report)
			}
			s := NewStore(maxHist)
			s.checkpointEvery = cpEvery
			s.sink = func(r wal.Record) { _ = l.Append(r) }
			l.SetCheckpointFunc(s.walCheckpoint)
			p := &storePair{s: s, o: newOracleStore(maxHist)}

			var frames []walStoreFrame
			lastBytes := int64(0)
			snap := func() {
				st := l.Stats()
				if st.BytesAppended == lastBytes {
					return // the op sealed nothing (e.g. MarkEvent outside a txn)
				}
				frames = append(frames, walStoreFrame{
					fs:       fs.Clone(),
					oracle:   cloneOracle(p.o),
					frameLen: st.BytesAppended - lastBytes,
				})
				lastBytes = st.BytesAppended
			}

			p.put("T", intSchema(), randRows(rng, 5))
			p.put("U", intSchema(), randRows(rng, 3))
			p.s.Commit()
			p.o.commit()
			snap()
			driveWALStoreStream(t, rng, p, 120, snap)
			if err := l.Err(); err != nil {
				t.Fatalf("log error without faults: %v", err)
			}
			l.Close()
			if len(frames) < 20 {
				t.Fatalf("stream too quiet: only %d record boundaries", len(frames))
			}

			for k, f := range frames {
				step := fmt.Sprintf("seed %d boundary %d", seed, k)
				s2, rec := replayedStore(t, step, f.fs.Clone(), maxHist, cpEvery)
				if !rec.Report.Clean() {
					t.Fatalf("%s: unexpected repair on intact log: %s", step, rec.Report)
				}
				assertStoreParity(t, step, &storePair{s: s2, o: f.oracle})

				// Torn offset inside this boundary's record: recovery must
				// truncate it and land exactly on the previous boundary.
				if k == 0 || f.frameLen < 2 {
					continue
				}
				cut := 1 + rng.Int63n(f.frameLen-1)
				tfs := f.fs.Clone()
				path := lastSegPath(t, tfs)
				size, err := tfs.Size(path)
				if err != nil {
					t.Fatalf("%s: size: %v", step, err)
				}
				if err := tfs.Truncate(path, size-cut); err != nil {
					t.Fatalf("%s: truncate: %v", step, err)
				}
				s3, rec3 := replayedStore(t, step+" torn", tfs, maxHist, cpEvery)
				if rec3.Report.TornTailBytes == 0 {
					t.Fatalf("%s: cut %d bytes but recovery saw no torn tail", step, cut)
				}
				assertStoreParity(t, step+" torn", &storePair{s: s3, o: frames[k-1].oracle})
			}
		})
	}
}

// TestWALStoreStickyFaultDegradesToMemory injects a write fault mid-stream:
// the log must disable itself (sticky error), the store must keep running in
// memory in full parity with the oracle, and recovery from the faulted disk
// must land on the longest durable prefix — the state at the last record
// that fully hit the disk before the fault.
func TestWALStoreStickyFaultDegradesToMemory(t *testing.T) {
	const seed, ops, maxHist, cpEvery = 7, 80, 4, 2

	// Clean pass: record the oracle state at every record boundary.
	var oracles []*oracleStore
	{
		fs := faultfs.NewMem()
		l, _ := openTestWAL(t, fs, 1<<30)
		s := NewStore(maxHist)
		s.checkpointEvery = cpEvery
		s.sink = func(r wal.Record) { _ = l.Append(r) }
		l.SetCheckpointFunc(s.walCheckpoint)
		p := &storePair{s: s, o: newOracleStore(maxHist)}
		rng := rand.New(rand.NewSource(seed))
		lastBytes := int64(0)
		snap := func() {
			if st := l.Stats(); st.BytesAppended != lastBytes {
				oracles = append(oracles, cloneOracle(p.o))
				lastBytes = st.BytesAppended
			}
		}
		p.put("T", intSchema(), randRows(rng, 5))
		p.put("U", intSchema(), randRows(rng, 3))
		p.s.Commit()
		p.o.commit()
		snap()
		driveWALStoreStream(t, rng, p, ops, snap)
		l.Close()
	}

	// Faulted passes: the plan counts writes from SetPlan (the segment header
	// is already on disk), so write w is record w and records 1..w-1 are the
	// durable prefix.
	for _, tc := range []struct {
		failWrite int
		short     int
	}{{5, 0}, {5, 3}, {12, 0}, {12, 5}, {len(oracles), 3}} {
		name := fmt.Sprintf("write%d_short%d", tc.failWrite, tc.short)
		t.Run(name, func(t *testing.T) {
			fs := faultfs.NewMem()
			l, _ := openTestWAL(t, fs, 1<<30)
			fs.SetPlan(faultfs.Plan{FailWrite: tc.failWrite, ShortBytes: tc.short})
			s := NewStore(maxHist)
			s.checkpointEvery = cpEvery
			s.sink = func(r wal.Record) { _ = l.Append(r) }
			l.SetCheckpointFunc(s.walCheckpoint)
			p := &storePair{s: s, o: newOracleStore(maxHist)}
			rng := rand.New(rand.NewSource(seed))
			p.put("T", intSchema(), randRows(rng, 5))
			p.put("U", intSchema(), randRows(rng, 3))
			p.s.Commit()
			p.o.commit()
			driveWALStoreStream(t, rng, p, ops, func() {})
			if !fs.Crashed() {
				t.Fatalf("fault at write %d never fired", tc.failWrite)
			}
			if l.Err() == nil {
				t.Fatal("log swallowed the write fault: Err() == nil")
			}
			// The store itself must be unaffected: full live parity.
			assertStoreParity(t, "degraded live state", p)
			l.Close()

			// Recovery sees records 1..failWrite-1 intact plus a torn tail.
			fs.ClearFaults()
			durable := tc.failWrite - 1
			s2, rec := replayedStore(t, name, fs, maxHist, cpEvery)
			if got := len(rec.Records); got != durable {
				t.Fatalf("recovered %d records, want %d", got, durable)
			}
			if tc.short > 0 && rec.Report.TornTailBytes == 0 {
				t.Fatalf("short write left no torn tail: %s", rec.Report)
			}
			assertStoreParity(t, name+" recovered", &storePair{s: s2, o: oracles[durable-1]})
		})
	}
}

// TestWALRotationCheckpointBoundedRecovery forces segment rotation with a
// tiny segment size: recovery seeds from the newest on-disk checkpoint,
// version numbering continues exactly where the crashed process left off,
// and every committed version retained by both sides matches.
func TestWALRotationCheckpointBoundedRecovery(t *testing.T) {
	const maxHist, cpEvery = 3, 2
	rng := rand.New(rand.NewSource(11))
	fs := faultfs.NewMem()
	l, _, err := wal.Open(wal.Options{Dir: walTestDir, FS: fs, Policy: wal.SyncNever, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(maxHist)
	s.checkpointEvery = cpEvery
	s.sink = func(r wal.Record) { _ = l.Append(r) }
	l.SetCheckpointFunc(s.walCheckpoint)
	p := &storePair{s: s, o: newOracleStore(maxHist)}

	// Commit-heavy stream so rest states (rotation opportunities) are common;
	// commitFrames[i] is the database as of commit number i+1.
	var commitFrames []oracleSnap
	p.put("T", intSchema(), randRows(rng, 6))
	p.put("U", intSchema(), randRows(rng, 4))
	p.s.Commit()
	p.o.commit()
	commitFrames = append(commitFrames, p.o.capture())
	for op := 0; op < 500; op++ {
		name := []string{"T", "U"}[rng.Intn(2)]
		switch k := rng.Intn(10); {
		case k < 5:
			p.insert(name, randRows(rng, 1+rng.Intn(3)))
		case k < 6:
			or := p.o.rels[keyOf(name)]
			if len(or.Rows) > 2 {
				p.deleteVals(name, []relation.Tuple{or.Rows[rng.Intn(len(or.Rows))]})
			}
		default:
			p.s.Commit()
			p.o.commit()
			commitFrames = append(commitFrames, p.o.capture())
		}
	}
	p.s.Commit()
	p.o.commit()
	commitFrames = append(commitFrames, p.o.capture())
	if segs := l.Stats().SegmentsWritten; segs < 3 {
		t.Fatalf("stream rotated only %d segment(s); rotation path untested", segs)
	}
	// Make sure the newest segment holds commits beyond its head checkpoint,
	// so corrupting that checkpoint provably loses state below. A round that
	// rotated leaves the new segment holding only its checkpoint, so it takes
	// one more round.
	for round := 0; round < 2; round++ {
		segs := l.Stats().SegmentsWritten
		for i := 0; i < 3; i++ {
			p.insert("T", randRows(rng, 1))
			p.s.Commit()
			p.o.commit()
			commitFrames = append(commitFrames, p.o.capture())
		}
		if l.Stats().SegmentsWritten == segs {
			break
		}
	}
	totalCommits := len(commitFrames)
	l.Close()

	assertFrameParity := func(step string, s2 *Store, frame oracleSnap) {
		t.Helper()
		for _, nm := range frame.names {
			want := frame.rels[keyOf(nm)]
			got, err := s2.Resolve(nm, relation.Current())
			if err != nil {
				t.Fatalf("%s: %s: %v", step, nm, err)
			}
			if !relation.Equal(got, want) {
				t.Fatalf("%s: %s diverges from commit frame", step, nm)
			}
		}
	}

	// Crash at the end: bounded recovery from the newest checkpoint.
	s2, rec := replayedStore(t, "rotation", fs.Clone(), maxHist, cpEvery)
	if rec.Report.CheckpointCommits == 0 {
		t.Fatalf("recovery ignored on-disk checkpoints: %s", rec.Report)
	}
	if got := s2.droppedCommits + s2.Versions(); got != totalCommits {
		t.Fatalf("commit numbering broken: recovered total %d, want %d", got, totalCommits)
	}
	assertFrameParity("newest", s2, commitFrames[totalCommits-1])
	// Every retained historical version matches the matching commit frame:
	// @vnow-1 is the newest commit, @vnow-Versions() the oldest retained.
	for off := 1; off <= s2.Versions() && off <= totalCommits; off++ {
		got, err := s2.Resolve("T", relation.VNow(off))
		if err != nil {
			t.Fatalf("@vnow-%d: %v", off, err)
		}
		want := commitFrames[totalCommits-off].rels[keyOf("T")]
		if !relation.Equal(got, want) {
			t.Fatalf("@vnow-%d diverges from commit frame", off)
		}
	}

	// Corrupt the newest checkpoint: recovery must fall back to an older
	// segment's checkpoint and land on a consistent earlier commit.
	cfs := fs.Clone()
	if err := cfs.Corrupt(lastSegPath(t, cfs), int64(len("DVMSWAL1"))+4); err != nil {
		t.Fatal(err)
	}
	s3, rec3 := replayedStore(t, "corrupt newest checkpoint", cfs, maxHist, cpEvery)
	if rec3.Report.Clean() {
		t.Fatalf("corruption went unnoticed: %s", rec3.Report)
	}
	got := s3.droppedCommits + s3.Versions()
	if got <= 0 || got > totalCommits {
		t.Fatalf("recovered to impossible commit count %d (total %d)", got, totalCommits)
	}
	if got == totalCommits {
		t.Fatal("recovery claims full state despite a corrupted newest checkpoint")
	}
	assertFrameParity("degraded", s3, commitFrames[got-1])
}

// --- engine-level wall ---

// engineFrame captures what a client observes: every relation's contents
// plus the rendered framebuffer.
type engineFrame struct {
	names  []string
	rels   map[string]*relation.Relation
	pixels *relation.Relation
}

func captureEngineFrame(e *Engine) engineFrame {
	f := engineFrame{rels: map[string]*relation.Relation{}}
	f.names = append(f.names, e.store.Names()...)
	for _, nm := range f.names {
		r, _ := e.store.Get(nm)
		f.rels[keyOf(nm)] = r.Snapshot()
	}
	f.pixels = e.Pixels(true)
	return f
}

func totalCommits(e *Engine) int {
	return e.store.droppedCommits + e.store.Versions()
}

func assertEngineFrame(t *testing.T, step string, e *Engine, f engineFrame) {
	t.Helper()
	if got, want := len(e.store.Names()), len(f.names); got != want {
		t.Fatalf("%s: %d relations, want %d (%v vs %v)", step, got, want, e.store.Names(), f.names)
	}
	for _, nm := range f.names {
		got, err := e.store.Resolve(nm, relation.Current())
		if err != nil {
			t.Fatalf("%s: %s: %v", step, nm, err)
		}
		if !relation.Equal(got, f.rels[keyOf(nm)]) {
			gc, wc := got.Clone(), f.rels[keyOf(nm)].Clone()
			gc.SortDeterministic()
			wc.SortDeterministic()
			t.Fatalf("%s: %s diverges\nrecovered:\n%s\nwant:\n%s", step, nm, gc, wc)
		}
	}
	if !relation.Equal(e.Pixels(true), f.pixels) {
		t.Fatalf("%s: rendered pixels diverge", step)
	}
}

func dragStream(t0, x0, y0, x1, y1 int64) events.Stream {
	return events.Stream{
		events.Mouse(events.MouseDown, t0, x0, y0),
		events.Mouse(events.MouseMove, t0+1, (x0+x1)/2, (y0+y1)/2),
		events.Mouse(events.MouseMove, t0+2, x1, y1),
		events.Mouse(events.MouseUp, t0+3, x1, y1),
	}
}

// runBrushingScript drives a fixed interaction script against an engine.
// onEvent fires after every fed event (a crash point inside an interaction);
// onAction fires after each completed action (a rest-state crash point).
func runBrushingScript(t *testing.T, e *Engine, onEvent, onAction func()) {
	t.Helper()
	feed := func(st events.Stream) {
		for _, ev := range st {
			if _, err := e.FeedEvent(ev); err != nil {
				t.Fatalf("feed %v: %v", ev, err)
			}
			onEvent()
		}
	}
	exec := func(src string) {
		if err := e.Exec(src); err != nil {
			t.Fatalf("exec: %v", err)
		}
		e.Commit()
	}
	undo := func() {
		if err := e.Undo(); err != nil {
			t.Fatalf("undo: %v", err)
		}
	}
	// Committed selection of p2/p3.
	feed(dragStream(10, 100, 10, 210, 160))
	onAction()
	// Data mutation outside any interaction.
	exec("INSERT INTO Sales VALUES (6, 60, 60, 60, 'flute');")
	onAction()
	// A different selection.
	feed(dragStream(20, 80, 100, 400, 300))
	onAction()
	// Undo it, then undo again (redo by depth-2 versioning).
	undo()
	onAction()
	undo()
	onAction()
	// Aborted drag: the FORALL y > 5 guard fails on the second move.
	feed(events.Stream{
		events.Mouse(events.MouseDown, 30, 0, 10),
		events.Mouse(events.MouseMove, 31, 390, 290),
		events.Mouse(events.MouseMove, 32, 390, 3),
	})
	onAction()
	// A final committed selection on the grown dataset.
	feed(dragStream(40, 200, 100, 300, 250))
	onAction()
}

// brushingStmts parses brushingProgram, the statements RecoverEngine
// reinstalls.
func brushingStmts(t *testing.T) []parser.Statement {
	t.Helper()
	stmts, err := parser.Parse(brushingProgram)
	if err != nil {
		t.Fatal(err)
	}
	return stmts
}

// TestWALEngineCrashRecoveryParity is the engine-level wall: a brushing
// session runs with the log attached, the disk is cloned after every fed
// event and completed action, and RecoverEngine from each clone must land on
// the oracle's state at the same commit — a crash mid-interaction aborts the
// interaction, so the recovered engine shows the last committed version.
func TestWALEngineCrashRecoveryParity(t *testing.T) {
	cfg := Config{MaxHistory: 4}

	// Oracle run (no log): frame per commit count.
	frames := map[int]engineFrame{}
	oe := New(cfg)
	if err := oe.LoadProgram(brushingProgram); err != nil {
		t.Fatalf("load: %v", err)
	}
	record := func() {
		tc := totalCommits(oe)
		if _, ok := frames[tc]; !ok {
			frames[tc] = captureEngineFrame(oe)
		}
	}
	record()
	runBrushingScript(t, oe, func() {}, record)

	// Logged run: clone the disk at every crash point.
	type diskClone struct {
		fs      *faultfs.Mem
		commits int
		label   string
	}
	var clones []diskClone
	fs := faultfs.NewMem()
	l, rec0 := openTestWAL(t, fs, 1<<30)
	we := New(cfg)
	we.AttachWAL(l)
	if err := we.LoadProgram(brushingProgram); err != nil {
		t.Fatalf("load: %v", err)
	}
	point := func(label string) func() {
		return func() {
			clones = append(clones, diskClone{fs: fs.Clone(), commits: totalCommits(we), label: label})
		}
	}
	point("load")()
	runBrushingScript(t, we, point("event"), point("action"))
	if err := l.Err(); err != nil {
		t.Fatalf("log error: %v", err)
	}
	l.Close()
	_ = rec0

	// The logged engine and the oracle engine must agree live, first.
	assertEngineFrame(t, "live end state", we, frames[totalCommits(we)])

	stmts := brushingStmts(t)
	for i, c := range clones {
		step := fmt.Sprintf("clone %d (%s, commit %d)", i, c.label, c.commits)
		l2, rec := openTestWAL(t, c.fs, 1<<30)
		if !rec.Report.Clean() {
			t.Fatalf("%s: unexpected repair: %s", step, rec.Report)
		}
		re, err := RecoverEngine(cfg, stmts, rec)
		l2.Close()
		if err != nil {
			t.Fatalf("%s: recover: %v", step, err)
		}
		if got := totalCommits(re); got != c.commits {
			t.Fatalf("%s: recovered commit count %d, want %d", step, got, c.commits)
		}
		if re.store.InTxn() {
			t.Fatalf("%s: recovered engine left a transaction in flight", step)
		}
		frame, ok := frames[c.commits]
		if !ok {
			t.Fatalf("%s: no oracle frame for commit %d", step, c.commits)
		}
		assertEngineFrame(t, step, re, frame)
	}
}

// TestRecoverEngineRefusesEmptyLog: recovery skips the program's INSERTs
// (their effects are assumed to be in the log), so recovering from an empty
// log must refuse rather than silently come up with empty tables.
func TestRecoverEngineRefusesEmptyLog(t *testing.T) {
	_, rec, err := wal.Open(wal.Options{Dir: "empty", FS: faultfs.NewMem(), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverEngine(Config{}, brushingStmts(t), rec); err == nil {
		t.Fatal("RecoverEngine accepted an empty log")
	}
}

// TestWALPostRestoreWriteCrashParity is the regression wall for the restore
// barrier: while a restore window is open, recordChange drops deltas, so a
// write accepted inside the window would silently never reach the log. Undo
// seals the window itself (it commits), but a host calling
// Store().RestoreVersion directly leaves it open — the engine must seal the
// barrier before accepting any post-restore write, and recovery from a disk
// clone taken after such a write must reproduce it exactly.
func TestWALPostRestoreWriteCrashParity(t *testing.T) {
	cfg := Config{MaxHistory: 4}
	fs := faultfs.NewMem()
	l, _ := openTestWAL(t, fs, 1<<30)
	e := New(cfg)
	e.AttachWAL(l)
	if err := e.LoadProgram(brushingProgram); err != nil {
		t.Fatalf("load: %v", err)
	}
	exec := func(src string) {
		t.Helper()
		if err := e.Exec(src); err != nil {
			t.Fatalf("exec %s: %v", src, err)
		}
		e.Commit()
	}
	type crashPoint struct {
		fs      *faultfs.Mem
		commits int
		want    engineFrame
	}
	var points []crashPoint
	mark := func() {
		points = append(points, crashPoint{fs.Clone(), totalCommits(e), captureEngineFrame(e)})
	}

	exec("INSERT INTO Sales VALUES (6, 60, 60, 60, 'flute');")
	if err := e.Store().RestoreVersion(1); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// First post-restore write: the barrier must seal before the insert so
	// the delta journals normally.
	exec("INSERT INTO Sales VALUES (7, 70, 70, 70, 'oboe');")
	mark()
	// A second restore/write cycle deeper into the history, this time with
	// the post-restore write arriving through the host row API.
	if err := e.Store().RestoreVersion(2); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := e.InsertRows("Sales", []relation.Tuple{{
		relation.Int(8), relation.Float(80), relation.Float(80),
		relation.Float(80), relation.String("drum"),
	}}); err != nil {
		t.Fatalf("insert rows: %v", err)
	}
	e.Commit()
	mark()
	if err := l.Err(); err != nil {
		t.Fatalf("log error: %v", err)
	}
	l.Close()

	stmts := brushingStmts(t)
	for i, c := range points {
		step := fmt.Sprintf("post-restore crash point %d (commit %d)", i, c.commits)
		l2, rec := openTestWAL(t, c.fs, 1<<30)
		if !rec.Report.Clean() {
			t.Fatalf("%s: unexpected repair: %s", step, rec.Report)
		}
		re, err := RecoverEngine(cfg, stmts, rec)
		l2.Close()
		if err != nil {
			t.Fatalf("%s: recover: %v", step, err)
		}
		if got := totalCommits(re); got != c.commits {
			t.Fatalf("%s: recovered commit count %d, want %d", step, got, c.commits)
		}
		assertEngineFrame(t, step, re, c.want)
	}
}
