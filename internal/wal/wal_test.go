package wal

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/relation"
	"repro/internal/wal/faultfs"
)

func testTuple(vals ...relation.Value) relation.Tuple { return relation.Tuple(vals) }

func sampleRecords() []Record {
	rel := relation.New("Brush", relation.NewSchema(
		relation.Col("x", relation.KindInt),
		relation.Col("label", relation.KindString),
	))
	rel.MustAppend(testTuple(relation.Int(3), relation.String("a")))
	rel.MustAppend(testTuple(relation.Float(2.5), relation.Null()))
	return []Record{
		&ChangeRecord{
			Seal: SealCommit,
			Deltas: []NamedDelta{
				{Name: "Sales", Delta: relation.Delta{
					Ins: []relation.Tuple{testTuple(relation.Int(1), relation.String("x"))},
					Del: []relation.Tuple{testTuple(relation.Bool(true), relation.Float(-0.5))},
				}},
			},
			Resets:  []*relation.Relation{rel},
			Created: []string{"Sales", "Brush"},
		},
		&ChangeRecord{Seal: SealEvent},
		&ControlRecord{Op: CtlRollback},
		&ControlRecord{Op: CtlRestore, Version: 7},
		&CheckpointRecord{Commits: 42, Rels: []*relation.Relation{rel}},
		&SessionRecord{Token: "tok-123", Op: SessAttach},
		&SessionRecord{Token: "tok-123", Op: SessEvent, Event: events.Mouse(events.MouseDown, 10, 4, 5)},
		&SessionRecord{Token: "tok-123", Op: SessUndo},
		&SessionRecord{Token: "tok-123", Op: SessForget},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for i, rec := range sampleRecords() {
		payload := EncodeRecord(rec)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("record %d: round trip mismatch:\n in: %#v\nout: %#v", i, rec, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	good := EncodeRecord(&ControlRecord{Op: CtlRestore, Version: 3})
	cases := [][]byte{
		nil,
		{99},               // unknown kind
		good[:len(good)-1], // truncated
		append(good, 0xaa), // trailing bytes
		{recChange},        // missing seal op
		{recChange, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // absurd count
	}
	for i, payload := range cases {
		if _, err := DecodeRecord(payload); err == nil {
			t.Errorf("case %d: decode accepted malformed payload", i)
		}
	}
}

// openMem opens a log over the given Mem filesystem with test-friendly
// defaults.
func openMem(t *testing.T, fs *faultfs.Mem, opt func(*Options)) (*Log, *Recovery) {
	t.Helper()
	opts := Options{Dir: "data", FS: fs, Policy: SyncNever, SegmentBytes: 1 << 30}
	if opt != nil {
		opt(&opts)
	}
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestAppendRecover(t *testing.T) {
	fs := faultfs.NewMem()
	l, rec := openMem(t, fs, nil)
	if len(rec.Records) != 0 || !rec.Report.Clean() {
		t.Fatalf("fresh dir: unexpected recovery %+v", rec.Report)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec2 := openMem(t, fs, nil)
	if !rec2.Report.Clean() {
		t.Fatalf("clean log reported dirty: %+v", rec2.Report)
	}
	if !reflect.DeepEqual(want, rec2.Records) {
		t.Fatalf("recovered records mismatch:\nwant %d records\n got %d records", len(want), len(rec2.Records))
	}
}

func TestTornTailTruncation(t *testing.T) {
	second := &ControlRecord{Op: CtlRestore, Version: 9}
	frameLen := frameHeaderLen + len(EncodeRecord(second))
	for short := 0; short < frameLen; short++ {
		fs := faultfs.NewMem()
		l, _ := openMem(t, fs, nil)
		if err := l.Append(&ControlRecord{Op: CtlRollback}); err != nil {
			t.Fatal(err)
		}
		// Crash partway through the second record's single write.
		fs.SetPlan(faultfs.Plan{FailWrite: 1, ShortBytes: short})
		err := l.Append(second)
		if !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("short=%d: expected crash, got %v", short, err)
		}

		fs.ClearFaults()
		l2, rec := openMem(t, fs, nil)
		if len(rec.Records) != 1 {
			t.Fatalf("short=%d: recovered %d records, want 1", short, len(rec.Records))
		}
		if short > 0 && rec.Report.TornTailBytes != int64(short) {
			t.Fatalf("short=%d: torn tail bytes %d", short, rec.Report.TornTailBytes)
		}
		if short > 0 && l2.Stats().TornTailTruncations != 1 {
			t.Fatalf("short=%d: stats %+v", short, l2.Stats())
		}
		// The log must be appendable after repair.
		if err := l2.Append(&ControlRecord{Op: CtlRestore, Version: 5}); err != nil {
			t.Fatalf("short=%d: append after repair: %v", short, err)
		}
		l2.Close()
		_, rec3 := openMem(t, fs, nil)
		if len(rec3.Records) != 2 {
			t.Fatalf("short=%d: after repair+append recovered %d records, want 2", short, len(rec3.Records))
		}
	}
	// A "short" write of the whole frame is a completed write: the record
	// must survive.
	fs := faultfs.NewMem()
	l, _ := openMem(t, fs, nil)
	if err := l.Append(&ControlRecord{Op: CtlRollback}); err != nil {
		t.Fatal(err)
	}
	fs.SetPlan(faultfs.Plan{FailWrite: 1, ShortBytes: frameLen})
	if err := l.Append(second); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("expected crash, got %v", err)
	}
	fs.ClearFaults()
	_, rec := openMem(t, fs, nil)
	if len(rec.Records) != 2 || rec.Report.TornTailBytes != 0 {
		t.Fatalf("full-frame short write: recovered %d records, report %+v", len(rec.Records), rec.Report)
	}
}

func TestStickyErrorDisablesLog(t *testing.T) {
	fs := faultfs.NewMem()
	l, _ := openMem(t, fs, nil)
	fs.SetPlan(faultfs.Plan{FailWrite: 1})
	if err := l.Append(&ControlRecord{Op: CtlRollback}); err == nil {
		t.Fatal("expected append failure")
	}
	fs.ClearFaults()
	if err := l.Append(&ControlRecord{Op: CtlRollback}); err == nil {
		t.Fatal("expected sticky error after failure")
	}
	if l.Err() == nil {
		t.Fatal("Err() should report the sticky failure")
	}
}

func TestRotationWritesCheckpoint(t *testing.T) {
	fs := faultfs.NewMem()
	l, _ := openMem(t, fs, func(o *Options) { o.SegmentBytes = 64 })
	commits := 0
	l.SetCheckpointFunc(func() *CheckpointRecord {
		return &CheckpointRecord{Commits: commits}
	})
	for i := 0; i < 20; i++ {
		commits++
		if err := l.Append(&ChangeRecord{Seal: SealCommit, Created: []string{fmt.Sprintf("rel%02d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.SegmentsWritten < 3 {
		t.Fatalf("expected rotation, got %d segments", st.SegmentsWritten)
	}
	l.Close()

	_, rec := openMem(t, fs, func(o *Options) { o.SegmentBytes = 64 })
	if rec.Checkpoint == nil {
		t.Fatal("recovery found no checkpoint despite rotation")
	}
	// Replay must be bounded: checkpoint commits + replayed commit records
	// must cover all 20 appends exactly.
	n := rec.Checkpoint.Commits
	for _, r := range rec.Records {
		if _, ok := r.(*ChangeRecord); ok {
			n++
		}
	}
	if n != 20 {
		t.Fatalf("checkpoint(%d) + %d records != 20 appends", rec.Checkpoint.Commits, len(rec.Records))
	}
	if len(rec.Records) >= 20 {
		t.Fatalf("recovery replayed %d records; checkpoint did not bound it", len(rec.Records))
	}
}

func TestCorruptMiddleSegmentDegradesGracefully(t *testing.T) {
	fs := faultfs.NewMem()
	l, _ := openMem(t, fs, func(o *Options) { o.SegmentBytes = 64 })
	for i := 0; i < 12; i++ {
		if err := l.Append(&ChangeRecord{Seal: SealCommit, Created: []string{fmt.Sprintf("rel%02d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().SegmentsWritten < 3 {
		t.Fatalf("need >=3 segments, got %d", l.Stats().SegmentsWritten)
	}
	l.Close()

	// Flip a byte in the middle of segment 2 (not the first, not the last).
	if err := fs.Corrupt("data/"+segName(2), 20); err != nil {
		t.Fatal(err)
	}
	l2, rec := openMem(t, fs, func(o *Options) { o.SegmentBytes = 1 << 30 })
	if rec.Report.CorruptSegment != segName(2) {
		t.Fatalf("report did not name the corrupt segment: %+v", rec.Report)
	}
	if rec.Report.DroppedBytes == 0 {
		t.Fatalf("report claims nothing dropped: %+v", rec.Report)
	}
	// Everything recovered must be the uncorrupted prefix, in order.
	for i, r := range rec.Records {
		cr, ok := r.(*ChangeRecord)
		if !ok || len(cr.Created) != 1 || cr.Created[0] != fmt.Sprintf("rel%02d", i) {
			t.Fatalf("record %d is not the expected prefix record: %#v", i, r)
		}
	}
	if len(rec.Records) >= 12 || len(rec.Records) == 0 {
		t.Fatalf("recovered %d records; want a proper nonempty prefix of 12", len(rec.Records))
	}
	// And the repaired log keeps working.
	if err := l2.Append(&ControlRecord{Op: CtlRollback}); err != nil {
		t.Fatalf("append after corruption repair: %v", err)
	}
	l2.Close()
	_, rec3 := openMem(t, fs, nil)
	if rec3.Report.CorruptSegment != "" {
		t.Fatalf("second recovery still sees corruption: %+v", rec3.Report)
	}
}

func TestCrashAtEveryWriteRecoversPrefix(t *testing.T) {
	// Baseline run to learn the total number of writes.
	mkRecords := func() []Record {
		var recs []Record
		for i := 0; i < 8; i++ {
			recs = append(recs, &ChangeRecord{Seal: SealCommit, Created: []string{fmt.Sprintf("rel%02d", i)}})
		}
		return recs
	}
	base := faultfs.NewMem()
	l, _ := openMem(t, base, func(o *Options) { o.SegmentBytes = 100 })
	l.SetCheckpointFunc(func() *CheckpointRecord { return &CheckpointRecord{Commits: 1} })
	for _, r := range mkRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	total := base.Writes()
	if total < 10 {
		t.Fatalf("baseline too small: %d writes", total)
	}

	for k := 1; k <= total; k++ {
		for _, short := range []int{0, 3} {
			fs := faultfs.NewMem()
			fs.SetPlan(faultfs.Plan{FailWrite: k, ShortBytes: short})
			func() {
				defer func() { recover() }() // Open/Append may fail mid-crash; that's the point
				l, _, err := Open(Options{Dir: "data", FS: fs, Policy: SyncNever, SegmentBytes: 100})
				if err != nil {
					return
				}
				l.SetCheckpointFunc(func() *CheckpointRecord { return &CheckpointRecord{Commits: 1} })
				for _, r := range mkRecords() {
					if l.Append(r) != nil {
						return
					}
				}
				l.Close()
			}()
			fs.ClearFaults()
			_, rec, err := Open(Options{Dir: "data", FS: fs, Policy: SyncNever, SegmentBytes: 100})
			if err != nil {
				t.Fatalf("k=%d short=%d: recovery failed: %v", k, short, err)
			}
			// Whatever survived must be a clean contiguous run of the
			// intended sequence: a genesis prefix, or — when a rotation
			// checkpoint restates earlier state — a suffix starting there.
			i := -1
			for _, r := range rec.Records {
				cr, ok := r.(*ChangeRecord)
				if !ok {
					continue
				}
				if i == -1 {
					if rec.Checkpoint == nil && cr.Created[0] != "rel00" {
						t.Fatalf("k=%d short=%d: genesis replay starts at %v", k, short, cr.Created)
					}
					fmt.Sscanf(cr.Created[0], "rel%d", &i)
				} else {
					i++
				}
				wantName := fmt.Sprintf("rel%02d", i)
				if len(cr.Created) != 1 || cr.Created[0] != wantName {
					t.Fatalf("k=%d short=%d: record out of order: got %v want %s", k, short, cr.Created, wantName)
				}
			}
			if rec.Report.CorruptSegment != "" {
				t.Fatalf("k=%d short=%d: crash misread as corruption: %+v", k, short, rec.Report)
			}
		}
	}
}

func TestDropUnsyncedRespectsPolicies(t *testing.T) {
	// never: a power loss may drop everything unflushed.
	fs := faultfs.NewMem()
	l, _ := openMem(t, fs, func(o *Options) { o.Policy = SyncNever })
	for i := 0; i < 5; i++ {
		if err := l.Append(&ControlRecord{Op: CtlRollback}); err != nil {
			t.Fatal(err)
		}
	}
	fs.DropUnsynced()
	_, rec := openMem(t, fs, nil)
	if len(rec.Records) != 0 {
		t.Fatalf("never-policy power loss kept %d records", len(rec.Records))
	}

	// always: every appended record survives power loss.
	fs2 := faultfs.NewMem()
	l2, _ := openMem(t, fs2, func(o *Options) { o.Policy = SyncAlways })
	for i := 0; i < 5; i++ {
		if err := l2.Append(&ControlRecord{Op: CtlRollback}); err != nil {
			t.Fatal(err)
		}
	}
	if l2.Stats().Fsyncs < 5 {
		t.Fatalf("always policy issued only %d fsyncs", l2.Stats().Fsyncs)
	}
	fs2.DropUnsynced()
	_, rec2 := openMem(t, fs2, nil)
	if len(rec2.Records) != 5 {
		t.Fatalf("always-policy power loss kept %d records, want 5", len(rec2.Records))
	}
}

func TestIntervalPolicyEventuallySyncs(t *testing.T) {
	fs := faultfs.NewMem()
	l, _ := openMem(t, fs, func(o *Options) {
		o.Policy = SyncInterval
		o.Interval = time.Millisecond
	})
	if err := l.Append(&ControlRecord{Op: CtlRollback}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval policy never synced")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
	fs.DropUnsynced()
	_, rec := openMem(t, fs, nil)
	if len(rec.Records) != 1 {
		t.Fatalf("interval sync lost the record: %d recovered", len(rec.Records))
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"Interval", SyncInterval, true},
		{"never", SyncNever, true},
		{"", SyncInterval, true},
		{"sometimes", 0, false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || (err == nil && got != tc.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// BenchmarkAppend measures the per-record append cost (encode + frame +
// write) on the in-memory filesystem, per fsync policy — the pure logging
// overhead a MarkEvent pays, without disk latency for never/interval.
func BenchmarkAppend(b *testing.B) {
	recs := sampleRecords()
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"never", SyncNever},
		{"interval", SyncInterval},
		{"always", SyncAlways},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fs := faultfs.NewMem()
			l, _, err := Open(Options{Dir: "data", FS: fs, Policy: tc.policy})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
