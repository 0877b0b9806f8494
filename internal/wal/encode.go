package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/events"
	"repro/internal/relation"
)

// Binary record payloads. Every payload starts with a record-kind byte;
// integers are varints, strings and repeated groups are length-prefixed.
// The framing around payloads (length + checksum) lives in wal.go.

// Record kinds (first payload byte).
const (
	recChange     = 1 // a sealed pending window (deltas, resets, created)
	recControl    = 2 // a logical store control op (rollback / restore)
	recCheckpoint = 3 // full-state checkpoint written at segment rotation
	recSession    = 4 // a session-journal op (attach / event / undo / forget)
)

// SealOp says which store boundary sealed the window, so replay drives the
// store through the same Commit/BeginTxn/MarkEvent machinery that produced
// the record — checkpoints, compaction, and history trimming reproduce
// deterministically instead of being serialized.
type SealOp uint8

// Seal boundaries, mirroring the store's sealing call sites.
const (
	SealCommit  SealOp = iota // Store.Commit
	SealBegin                 // Store.BeginTxn
	SealEvent                 // Store.MarkEvent
	SealBarrier               // Store.SealRestoreBarrier (post-restore write guard)
)

// ControlOp is a logical store operation that is not a sealed window.
type ControlOp uint8

// Control operations.
const (
	CtlRollback ControlOp = iota // Store.Rollback
	CtlRestore                   // Store.RestoreVersion(Version)
)

// SessionOp is one entry in a client session's journal.
type SessionOp uint8

// Session journal operations.
const (
	SessAttach SessionOp = iota // session token first seen
	SessEvent                   // one input event fed to the session
	SessUndo                    // session-level undo
	SessForget                  // explicit detach: drop the journal
)

// NamedDelta pairs a relation name with its change for one sealed window.
type NamedDelta struct {
	Name  string
	Delta relation.Delta
}

// ChangeRecord is one sealed pending window: the per-relation deltas, any
// full-contents resets (relations the window rewrote wholesale), and the
// names of relations created inside the window, in creation order.
type ChangeRecord struct {
	Seal    SealOp
	Deltas  []NamedDelta // sorted by Name for deterministic bytes
	Resets  []*relation.Relation
	Created []string
}

// ControlRecord logs a rollback or restore; replay re-issues the call and the
// store rebuilds the resulting barrier entry itself.
type ControlRecord struct {
	Op      ControlOp
	Version int // RestoreVersion argument (CtlRestore only)
}

// CheckpointRecord is a full snapshot of live relations written at the head
// of a fresh segment, so recovery can start there instead of at genesis.
// Commits counts all commits sealed before the checkpoint, letting replay
// keep the version numbering of the uncrashed process.
type CheckpointRecord struct {
	Commits int
	Rels    []*relation.Relation // creation order
	// Sessions restates every live session journal. Journals are not part of
	// the store state the checkpoint seeds, so without them a recovery that
	// starts at this checkpoint would lose every session record logged before
	// it.
	Sessions []SessionRecord
}

// SessionRecord is one op of a client session journal, keyed by the client's
// stable resume token.
type SessionRecord struct {
	Token string
	Op    SessionOp
	Event events.Event // SessEvent only
}

// Record is any WAL record payload.
type Record interface{ isRecord() }

func (*ChangeRecord) isRecord()     {}
func (*ControlRecord) isRecord()    {}
func (*CheckpointRecord) isRecord() {}
func (*SessionRecord) isRecord()    {}

// --- encoding ---

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v relation.Value) []byte {
	k := v.Kind()
	b = append(b, byte(k))
	switch k {
	case relation.KindNull:
	case relation.KindBool:
		t, _ := v.AsBool()
		if t {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case relation.KindInt:
		i, _ := v.AsInt()
		b = appendVarint(b, i)
	case relation.KindFloat:
		f, _ := v.AsFloat()
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	case relation.KindString:
		b = appendString(b, v.AsString())
	}
	return b
}

func appendTuple(b []byte, t relation.Tuple) []byte {
	b = appendUvarint(b, uint64(len(t)))
	for _, v := range t {
		b = appendValue(b, v)
	}
	return b
}

func appendTuples(b []byte, ts []relation.Tuple) []byte {
	b = appendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = appendTuple(b, t)
	}
	return b
}

func appendDelta(b []byte, d relation.Delta) []byte {
	b = appendTuples(b, d.Ins)
	return appendTuples(b, d.Del)
}

func appendSchema(b []byte, s relation.Schema) []byte {
	b = appendUvarint(b, uint64(len(s.Cols)))
	for _, c := range s.Cols {
		b = appendString(b, c.Qualifier)
		b = appendString(b, c.Name)
		b = append(b, byte(c.Kind))
	}
	return b
}

func appendRelation(b []byte, r *relation.Relation) []byte {
	b = appendString(b, r.Name)
	b = appendSchema(b, r.Schema)
	return appendTuples(b, r.Rows)
}

func appendSessionRecord(b []byte, r *SessionRecord) []byte {
	b = append(b, byte(r.Op))
	b = appendString(b, r.Token)
	if r.Op == SessEvent {
		b = appendEvent(b, r.Event)
	}
	return b
}

func appendEvent(b []byte, ev events.Event) []byte {
	b = appendString(b, ev.Type)
	b = appendVarint(b, ev.T)
	// Attrs in sorted-name order for deterministic bytes.
	names := make([]string, 0, len(ev.Attrs))
	for name := range ev.Attrs {
		names = append(names, name)
	}
	sortStrings(names)
	b = appendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendString(b, name)
		b = appendValue(b, ev.Attrs[name])
	}
	return b
}

// EncodeRecord serializes a record payload (kind byte first).
func EncodeRecord(rec Record) []byte { return appendRecord(nil, rec) }

// appendRecord appends a record's payload encoding to b.
func appendRecord(b []byte, rec Record) []byte {
	switch r := rec.(type) {
	case *ChangeRecord:
		b = append(b, recChange, byte(r.Seal))
		b = appendUvarint(b, uint64(len(r.Deltas)))
		for _, nd := range r.Deltas {
			b = appendString(b, nd.Name)
			b = appendDelta(b, nd.Delta)
		}
		b = appendUvarint(b, uint64(len(r.Resets)))
		for _, rel := range r.Resets {
			b = appendRelation(b, rel)
		}
		b = appendUvarint(b, uint64(len(r.Created)))
		for _, name := range r.Created {
			b = appendString(b, name)
		}
		return b
	case *ControlRecord:
		b = append(b, recControl, byte(r.Op))
		return appendVarint(b, int64(r.Version))
	case *CheckpointRecord:
		b = append(b, recCheckpoint)
		b = appendUvarint(b, uint64(r.Commits))
		b = appendUvarint(b, uint64(len(r.Rels)))
		for _, rel := range r.Rels {
			b = appendRelation(b, rel)
		}
		b = appendUvarint(b, uint64(len(r.Sessions)))
		for i := range r.Sessions {
			b = appendSessionRecord(b, &r.Sessions[i])
		}
		return b
	case *SessionRecord:
		return appendSessionRecord(append(b, recSession), r)
	default:
		panic(fmt.Sprintf("wal: unknown record type %T", rec))
	}
}

// --- decoding ---

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated or malformed %s", what)
	}
}

func (d *decoder) byteVal(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(what)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a repeated-group length and bounds it by the remaining bytes
// (each element takes at least one byte), so corrupt lengths cannot force
// huge allocations.
func (d *decoder) count(what string) int {
	n := d.uvarint(what)
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail(what + " count")
		return 0
	}
	return int(n)
}

func (d *decoder) str(what string) string {
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail(what)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) value() relation.Value {
	switch k := relation.Kind(d.byteVal("value kind")); k {
	case relation.KindNull:
		return relation.Null()
	case relation.KindBool:
		return relation.Bool(d.byteVal("bool value") != 0)
	case relation.KindInt:
		return relation.Int(d.varint("int value"))
	case relation.KindFloat:
		if d.err == nil && len(d.b) < 8 {
			d.fail("float value")
		}
		if d.err != nil {
			return relation.Null()
		}
		bits := binary.LittleEndian.Uint64(d.b)
		d.b = d.b[8:]
		return relation.Float(math.Float64frombits(bits))
	case relation.KindString:
		return relation.String(d.str("string value"))
	default:
		d.fail(fmt.Sprintf("value kind %d", k))
		return relation.Null()
	}
}

func (d *decoder) tuple() relation.Tuple {
	n := d.count("tuple arity")
	if d.err != nil {
		return nil
	}
	t := make(relation.Tuple, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		t = append(t, d.value())
	}
	return t
}

func (d *decoder) tuples() []relation.Tuple {
	n := d.count("tuple list")
	if d.err != nil || n == 0 {
		return nil
	}
	ts := make([]relation.Tuple, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		ts = append(ts, d.tuple())
	}
	return ts
}

func (d *decoder) delta() relation.Delta {
	ins := d.tuples()
	del := d.tuples()
	return relation.Delta{Ins: ins, Del: del}
}

func (d *decoder) schema() relation.Schema {
	n := d.count("schema")
	cols := make([]relation.Column, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		q := d.str("column qualifier")
		name := d.str("column name")
		kind := relation.Kind(d.byteVal("column kind"))
		cols = append(cols, relation.Column{Qualifier: q, Name: name, Kind: kind})
	}
	return relation.Schema{Cols: cols}
}

func (d *decoder) relation() *relation.Relation {
	name := d.str("relation name")
	schema := d.schema()
	rows := d.tuples()
	if d.err != nil {
		return nil
	}
	return &relation.Relation{Name: name, Schema: schema, Rows: rows}
}

func (d *decoder) event() events.Event {
	typ := d.str("event type")
	t := d.varint("event time")
	n := d.count("event attrs")
	var attrs map[string]relation.Value
	if n > 0 {
		attrs = make(map[string]relation.Value, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str("attr name")
		attrs[name] = d.value()
	}
	return events.Event{Type: typ, T: t, Attrs: attrs}
}

func (d *decoder) sessionRecord() SessionRecord {
	r := SessionRecord{Op: SessionOp(d.byteVal("session op"))}
	r.Token = d.str("session token")
	if d.err == nil && r.Op == SessEvent {
		r.Event = d.event()
	}
	return r
}

// DecodeRecord parses a record payload produced by EncodeRecord. Trailing
// garbage after a well-formed record is an error: a checksum-valid frame must
// decode exactly.
func DecodeRecord(payload []byte) (Record, error) {
	d := &decoder{b: payload}
	kind := d.byteVal("record kind")
	var rec Record
	switch kind {
	case recChange:
		r := &ChangeRecord{Seal: SealOp(d.byteVal("seal op"))}
		for i, n := 0, d.count("deltas"); i < n && d.err == nil; i++ {
			name := d.str("delta relation name")
			r.Deltas = append(r.Deltas, NamedDelta{Name: name, Delta: d.delta()})
		}
		for i, n := 0, d.count("resets"); i < n && d.err == nil; i++ {
			r.Resets = append(r.Resets, d.relation())
		}
		for i, n := 0, d.count("created"); i < n && d.err == nil; i++ {
			r.Created = append(r.Created, d.str("created name"))
		}
		rec = r
	case recControl:
		rec = &ControlRecord{Op: ControlOp(d.byteVal("control op")), Version: int(d.varint("restore version"))}
	case recCheckpoint:
		r := &CheckpointRecord{Commits: int(d.uvarint("checkpoint commits"))}
		for i, n := 0, d.count("checkpoint relations"); i < n && d.err == nil; i++ {
			r.Rels = append(r.Rels, d.relation())
		}
		for i, n := 0, d.count("checkpoint sessions"); i < n && d.err == nil; i++ {
			r.Sessions = append(r.Sessions, d.sessionRecord())
		}
		rec = r
	case recSession:
		sr := d.sessionRecord()
		rec = &sr
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after record", len(d.b))
	}
	return rec, nil
}

func sortStrings(s []string) {
	// insertion sort: attr maps are tiny (x, y, key), avoids importing sort
	// here just for this.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
