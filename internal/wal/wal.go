// Package wal persists the store's delta log (and the serve tier's session
// journals) as length-prefixed, CRC32-checksummed records in numbered
// segment files. The log is logical: records are the sealed pending windows
// and control operations the store executed, and recovery replays them
// through the same store machinery, reproducing checkpoints, compaction, and
// @vnow/@tnow history deterministically. With a checkpoint provider, rotation
// heads each new segment with a full-state checkpoint and deletes every
// segment older than the previous checkpoint segment, which stays as the
// fallback; recovery reads newest-first from the newest checkpoint that
// decodes. Without one, every segment stays and replay starts at genesis.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wal/faultfs"
)

// segMagic is the 8-byte header of every segment file.
const segMagic = "DVMSWAL1"

// frameHeaderLen is the per-record overhead: u32 payload length + u32 CRC.
const frameHeaderLen = 8

// Frame is one record encoded as the log writes it: the frame header (u32
// payload length, u32 CRC), then the payload. Encoding straight into the
// frame means a record is encoded once and never copied, however large.
type Frame []byte

// frameCap is a new frame's initial capacity: room for the header and a
// session or control record, so small records encode in one allocation.
const frameCap = 128

// NewFrame encodes rec into a fresh frame, filling the header in place.
func NewFrame(rec Record) Frame {
	f := appendRecord(make([]byte, frameHeaderLen, frameCap), rec)
	payload := f[frameHeaderLen:]
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.Checksum(payload, castagnoli))
	return f
}

// PayloadLen is the length of the record's encoding, len(EncodeRecord).
func (f Frame) PayloadLen() int { return len(f) - frameHeaderLen }

// maxRecordLen bounds decoded frame lengths; anything larger is treated as
// corruption rather than attempted as an allocation.
const maxRecordLen = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

// Fsync policies.
const (
	// SyncNever leaves flushing to the OS (and to segment seals at rotation
	// and Close). Fastest; a crash can lose any unflushed suffix.
	SyncNever Policy = iota
	// SyncInterval fsyncs from a background ticker — bounded data loss at
	// near-in-memory append cost. The default.
	SyncInterval
	// SyncAlways fsyncs after every append: no sealed record is ever lost.
	SyncAlways
)

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "never":
		return SyncNever, nil
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// DurabilityStats counts the log's disk activity and what recovery found.
type DurabilityStats struct {
	SegmentsWritten     int64 // segment files created (including the first)
	BytesAppended       int64 // frame bytes appended (headers + payloads)
	Fsyncs              int64 // Sync calls issued
	RecoveredEvents     int64 // records successfully replayed by Open
	TornTailTruncations int64 // torn tails truncated during recovery
}

// Options configures Open.
type Options struct {
	// Dir is the data directory holding segment files.
	Dir string
	// FS is the filesystem; nil means the real one (faultfs.OS).
	FS faultfs.FS
	// Policy is the fsync policy (zero value: SyncNever; callers wanting the
	// serve default should pass SyncInterval explicitly).
	Policy Policy
	// Interval is the background fsync period for SyncInterval (default
	// 100ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment once the records after its
	// head checkpoint reach this size (default 8 MiB). The checkpoint itself
	// does not count, so a checkpoint larger than SegmentBytes does not make
	// every append rotate; recovery replays at most about this many bytes of
	// records after the checkpoint it starts from.
	SegmentBytes int64
}

func (o *Options) fill() {
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
}

// Report describes what recovery found and what, if anything, it dropped.
type Report struct {
	Segments          int    // segment files replayed
	Records           int    // records successfully decoded and returned
	TornTailBytes     int64  // bytes truncated off the last segment's tail
	CorruptSegment    string // mid-log segment where replay stopped ("" if none)
	DroppedBytes      int64  // bytes abandoned after the corruption point
	DroppedSegments   int    // whole segments abandoned after the corruption point
	RemovedHeadless   int    // trailing segments removed for unreadable headers
	CheckpointCommits int    // commit count carried by the starting checkpoint (0 if genesis)
}

// Clean reports whether recovery saw a fully intact log.
func (r Report) Clean() bool {
	return r.TornTailBytes == 0 && r.CorruptSegment == "" && r.RemovedHeadless == 0
}

// String summarizes the report for logs.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wal: recovered %d records from %d segment(s)", r.Records, r.Segments)
	if r.CheckpointCommits > 0 {
		fmt.Fprintf(&b, " starting at checkpoint (commit %d)", r.CheckpointCommits)
	}
	if r.TornTailBytes > 0 {
		fmt.Fprintf(&b, "; truncated %d-byte torn tail", r.TornTailBytes)
	}
	if r.RemovedHeadless > 0 {
		fmt.Fprintf(&b, "; removed %d headless segment(s)", r.RemovedHeadless)
	}
	if r.CorruptSegment != "" {
		fmt.Fprintf(&b, "; stopped at corrupt segment %s, dropped %d bytes and %d later segment(s)",
			r.CorruptSegment, r.DroppedBytes, r.DroppedSegments)
	}
	return b.String()
}

// Recovery is what Open found on disk: the checkpoint to seed from (nil for
// a genesis replay), the records after it in append order, and the report.
type Recovery struct {
	Checkpoint *CheckpointRecord
	Records    []Record
	Report     Report
}

// Log is an append-only record log over segment files. Appends are
// mutex-serialized; errors are sticky — after a failed write the log
// disables itself and every later Append returns the same error, so the
// host degrades to in-memory operation instead of logging a torn sequence.
type Log struct {
	mu       sync.Mutex
	opts     Options
	seg      faultfs.File
	segName  string
	segSize  int64
	segIndex int
	headLen  int64 // segment header plus its head checkpoint frame, if any
	cpIndex  int   // newest segment that begins with a checkpoint (0: none)
	err      error
	closed   bool
	dirty    bool // bytes appended since last sync
	stats    DurabilityStats

	// checkpoint, when set, supplies the full-state snapshot written at the
	// head of each rotated segment. Called under the log mutex from the
	// appender's goroutine; it must not call back into the log.
	checkpoint func() *CheckpointRecord

	// obsAppend/obsSync, when set via SetObs, record per-call append and
	// fsync latencies. Nil (the default, and the DisableObs arm) records
	// nothing and costs nothing — not even a clock read.
	obsAppend *obs.Histogram
	obsSync   *obs.Histogram

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open opens (or initializes) the log in opts.Dir, recovering whatever a
// previous process left behind: it validates checksums segment by segment,
// truncates a torn tail at the last valid record, drops everything after a
// corrupt mid-log record, and returns the surviving records for replay. The
// returned Log appends after the recovered suffix.
func Open(opts Options) (*Log, *Recovery, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: no data directory given")
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	l := &Log{opts: opts}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	l.stats.RecoveredEvents = int64(len(rec.Records))
	if l.opts.Policy == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, rec, nil
}

// SetObs points the log's append and fsync latency histograms at reg
// ("dvms_wal_append_seconds", "dvms_wal_fsync_seconds"). A nil reg disables
// recording.
func (l *Log) SetObs(reg *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if reg == nil {
		l.obsAppend, l.obsSync = nil, nil
		return
	}
	l.obsAppend = reg.Hist("dvms_wal_append_seconds")
	l.obsSync = reg.Hist("dvms_wal_fsync_seconds")
}

// SetCheckpointFunc installs the snapshot provider used at segment rotation.
// Without one, rotation still happens but new segments carry no checkpoint,
// so recovery replays from genesis.
func (l *Log) SetCheckpointFunc(fn func() *CheckpointRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.checkpoint = fn
}

// Append serializes the record and writes it as one frame — a single write
// call, so a crash tears at most this record. Rotation (and its checkpoint)
// happens after the append once the records past the segment's head
// checkpoint reach SegmentBytes.
func (l *Log) Append(rec Record) error { return l.AppendFrame(NewFrame(rec)) }

// AppendFrame is Append for a record the caller already encoded with
// NewFrame (to size it, say): the frame is written as it is.
func (l *Log) AppendFrame(f Frame) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.appendLocked(f); err != nil {
		return err
	}
	if l.opts.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if l.segSize-l.headLen >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes appended records to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed || l.seg == nil {
		return nil
	}
	return l.syncLocked()
}

// Err returns the sticky error, if the log has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats snapshots the durability counters.
func (l *Log) Stats() DurabilityStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close seals the active segment (final sync) and stops the interval-sync
// goroutine. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return l.err
	}
	l.closed = true
	stop := l.stopSync
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg != nil {
		if l.err == nil && l.dirty {
			if err := l.seg.Sync(); err != nil {
				l.fail(err)
			} else {
				l.stats.Fsyncs++
				l.dirty = false
			}
		}
		if err := l.seg.Close(); err != nil && l.err == nil {
			l.fail(err)
		}
		l.seg = nil
	}
	return l.err
}

// --- internals ---

func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = fmt.Errorf("wal: log disabled: %w", err)
	}
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if l.err == nil && !l.closed && l.seg != nil {
				l.syncLocked() // error is sticky; nothing more to do here
			}
			l.mu.Unlock()
		}
	}
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	var t0 time.Time
	if l.obsSync != nil {
		t0 = time.Now()
	}
	if err := l.seg.Sync(); err != nil {
		l.fail(err)
		return l.err
	}
	if l.obsSync != nil {
		l.obsSync.Observe(time.Since(t0))
	}
	l.stats.Fsyncs++
	l.dirty = false
	return nil
}

// appendLocked writes one frame in one call.
func (l *Log) appendLocked(frame Frame) error {
	var t0 time.Time
	if l.obsAppend != nil {
		t0 = time.Now()
	}
	if _, err := l.seg.Write(frame); err != nil {
		l.fail(err)
		return l.err
	}
	if l.obsAppend != nil {
		l.obsAppend.Observe(time.Since(t0))
	}
	l.segSize += int64(len(frame))
	l.stats.BytesAppended += int64(len(frame))
	l.dirty = true
	return nil
}

func segName(index int) string { return fmt.Sprintf("wal-%08d.seg", index) }

// parseSegIndex extracts the number from "wal-%08d.seg" names; -1 for
// foreign files.
func parseSegIndex(name string) int {
	var idx int
	if n, err := fmt.Sscanf(name, "wal-%d.seg", &idx); n != 1 || err != nil || !strings.HasSuffix(name, ".seg") {
		return -1
	}
	return idx
}

// newSegmentLocked creates segment file index and writes its header.
func (l *Log) newSegmentLocked(index int) error {
	name := segName(index)
	f, err := l.opts.FS.Create(filepath.Join(l.opts.Dir, name))
	if err != nil {
		l.fail(err)
		return l.err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		l.fail(err)
		return l.err
	}
	l.seg, l.segName, l.segIndex = f, name, index
	l.segSize = int64(len(segMagic))
	l.headLen = l.segSize
	l.stats.BytesAppended += int64(len(segMagic))
	l.stats.SegmentsWritten++
	l.dirty = true
	return nil
}

// rotateLocked seals the active segment and starts the next one, writing a
// checkpoint at its head when a provider is installed and then deleting the
// segments the new checkpoint makes unreachable. A provider returning nil
// defers the rotation: the host is not at a checkpointable rest state (e.g.
// mid-transaction), so the segment keeps growing and rotation retries at the
// next append.
func (l *Log) rotateLocked() error {
	var cp *CheckpointRecord
	if l.checkpoint != nil {
		if cp = l.checkpoint(); cp == nil {
			return nil
		}
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.seg.Close(); err != nil {
		l.fail(err)
		return l.err
	}
	l.seg = nil
	if err := l.newSegmentLocked(l.segIndex + 1); err != nil {
		return err
	}
	if cp != nil {
		if err := l.appendLocked(NewFrame(cp)); err != nil {
			return err
		}
		l.headLen = l.segSize
		l.removeBelow(l.cpIndex)
		l.cpIndex = l.segIndex
	}
	if l.opts.Policy == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// removeBelow deletes every segment older than index, the previous
// checkpoint segment (0: none, so genesis replay keeps every segment). That
// segment's checkpoint, synced when it was rotated away from, is the
// fallback should the newest fail to decode. A failed List or Remove is no
// durability fault: the next rotation's listing retries it.
func (l *Log) removeBelow(index int) {
	names, err := l.opts.FS.List(l.opts.Dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if i := parseSegIndex(name); i >= 0 && i < index {
			_ = l.opts.FS.Remove(filepath.Join(l.opts.Dir, name))
		}
	}
}

// segFrames is one scanned segment: the decoded records and how the scan
// ended.
type segFrames struct {
	name     string
	index    int
	records  []Record
	headLen  int64 // header plus the first frame when that frame is a checkpoint
	validLen int64 // bytes up to and including the last valid frame
	totalLen int64
	headerOK bool
	decodeOK bool // every byte after validLen decoded, i.e. no garbage tail
}

// checkpoint returns the segment's head checkpoint, or nil when its first
// record is missing, undecodable, or of another kind.
func (sf *segFrames) checkpoint() *CheckpointRecord {
	if len(sf.records) == 0 {
		return nil
	}
	cp, _ := sf.records[0].(*CheckpointRecord)
	return cp
}

// scanSegment reads and validates one segment file.
func (l *Log) scanSegment(name string) (*segFrames, error) {
	sf := &segFrames{name: name, index: parseSegIndex(name)}
	f, err := l.opts.FS.Open(filepath.Join(l.opts.Dir, name))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	sf.totalLen = int64(len(data))
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return sf, nil // headerOK stays false
	}
	sf.headerOK = true
	off := int64(len(segMagic))
	sf.validLen, sf.headLen = off, off
	for {
		rest := data[off:]
		if len(rest) == 0 {
			sf.decodeOK = true
			return sf, nil
		}
		if len(rest) < frameHeaderLen {
			return sf, nil
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		want := binary.LittleEndian.Uint32(rest[4:8])
		if plen > maxRecordLen || int64(plen) > int64(len(rest)-frameHeaderLen) {
			return sf, nil
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(plen)]
		if crc32.Checksum(payload, castagnoli) != want {
			return sf, nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return sf, nil
		}
		sf.records = append(sf.records, rec)
		off += frameHeaderLen + int64(plen)
		sf.validLen = off
		if len(sf.records) == 1 && sf.checkpoint() != nil {
			sf.headLen = off
		}
	}
}

// recover repairs what a previous process left behind and opens the active
// segment for append. It reads segments newest-first and stops at the newest
// one whose first record decodes as a checkpoint, or at the oldest segment
// when none does; older segments are never read. The repair rules below
// apply to that suffix only.
func (l *Log) recover() (*Recovery, error) {
	names, err := l.opts.FS.List(l.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list data dir: %w", err)
	}
	var segs []string
	for _, name := range names {
		if parseSegIndex(name) >= 0 {
			segs = append(segs, name)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return parseSegIndex(segs[i]) < parseSegIndex(segs[j]) })

	rec := &Recovery{}
	var scanned []*segFrames
	for i := len(segs) - 1; i >= 0; i-- {
		sf, err := l.scanSegment(segs[i])
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", segs[i], err)
		}
		if !sf.headerOK && len(scanned) == 0 {
			// A trailing segment whose header never made it to disk (crash
			// during rotation) is not data loss — remove it and append to
			// the previous segment.
			if err := l.opts.FS.Remove(filepath.Join(l.opts.Dir, sf.name)); err != nil {
				return nil, fmt.Errorf("wal: remove headless segment %s: %w", sf.name, err)
			}
			rec.Report.RemovedHeadless++
			continue
		}
		scanned = append([]*segFrames{sf}, scanned...)
		if sf.checkpoint() != nil {
			break
		}
	}

	// A headerless segment in the middle is corruption: everything from it
	// on is unreadable. Cut the scan there.
	cut := len(scanned)
	for i, sf := range scanned {
		if !sf.headerOK {
			cut = i
			break
		}
	}
	if cut < len(scanned) {
		rec.Report.CorruptSegment = scanned[cut].name
		for _, sf := range scanned[cut:] {
			rec.Report.DroppedBytes += sf.totalLen
		}
		rec.Report.DroppedSegments = len(scanned) - cut - 1
		for _, sf := range scanned[cut:] {
			if err := l.opts.FS.Remove(filepath.Join(l.opts.Dir, sf.name)); err != nil {
				return nil, fmt.Errorf("wal: remove corrupt segment %s: %w", sf.name, err)
			}
		}
		scanned = scanned[:cut]
	}
	if len(scanned) == 0 {
		// Fresh directory, or nothing readable left: start segment 1.
		l.mu.Lock()
		defer l.mu.Unlock()
		if err := l.newSegmentLocked(1); err != nil {
			return nil, l.err
		}
		return rec, nil
	}

	// A decode failure before the last segment is mid-log corruption:
	// recover to the prefix, truncate the bad segment after its last valid
	// record, and drop the later segments so disk matches the recovered
	// state.
	last := len(scanned) - 1
	for i, sf := range scanned {
		if i == last || sf.decodeOK {
			continue
		}
		rec.Report.CorruptSegment = sf.name
		rec.Report.DroppedBytes = sf.totalLen - sf.validLen
		for _, later := range scanned[i+1:] {
			rec.Report.DroppedBytes += later.totalLen
			rec.Report.DroppedSegments++
			if err := l.opts.FS.Remove(filepath.Join(l.opts.Dir, later.name)); err != nil {
				return nil, fmt.Errorf("wal: remove segment %s after corruption: %w", later.name, err)
			}
		}
		if err := l.opts.FS.Truncate(filepath.Join(l.opts.Dir, sf.name), sf.validLen); err != nil {
			return nil, fmt.Errorf("wal: truncate corrupt segment %s: %w", sf.name, err)
		}
		sf.totalLen = sf.validLen
		sf.decodeOK = true
		scanned = scanned[:i+1]
		last = i
		break
	}

	// The last segment may carry a torn tail from the crash: truncate it at
	// the last valid record.
	tail := scanned[last]
	if !tail.decodeOK || tail.validLen < tail.totalLen {
		torn := tail.totalLen - tail.validLen
		if err := l.opts.FS.Truncate(filepath.Join(l.opts.Dir, tail.name), tail.validLen); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", tail.name, err)
		}
		if torn > 0 {
			rec.Report.TornTailBytes = torn
			l.stats.TornTailTruncations++
		}
		tail.totalLen = tail.validLen
	}

	// Replay starts at the first scanned segment: it begins with the
	// newest decodable checkpoint, or it is the oldest segment (genesis).
	first := scanned[0]
	if cp := first.checkpoint(); cp != nil {
		rec.Checkpoint, rec.Report.CheckpointCommits = cp, cp.Commits
		l.cpIndex = first.index
		first.records = first.records[1:]
	}
	for _, sf := range scanned {
		rec.Records = append(rec.Records, sf.records...)
	}
	rec.Report.Segments, rec.Report.Records = len(scanned), len(rec.Records)

	// Resume appending to the last segment.
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := l.opts.FS.OpenAppend(filepath.Join(l.opts.Dir, tail.name))
	if err != nil {
		return nil, fmt.Errorf("wal: reopen segment %s: %w", tail.name, err)
	}
	l.seg, l.segName, l.segIndex = f, tail.name, tail.index
	l.segSize, l.headLen = tail.totalLen, tail.headLen
	return rec, nil
}
