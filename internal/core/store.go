// Package core implements the DVMS engine of Fig 3: the Interaction
// Manager (program loading, static analysis), the Storage Manager (base
// relations, materialized views, version history for @vnow/@tnow), the
// Executor integration (topological view maintenance), interaction
// transactions driven by the Event Recognizer, render sinks producing the
// pixels table, and the provenance tracer of §3.1.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/wal"
)

// snapshot is the full database state at a point in time: every relation's
// contents, shallow-copied (tuples are immutable, so sharing is safe).
type snapshot map[string]*relation.Relation

// VersioningStats counts the storage manager's version-history work. The
// delta-log refactor trades whole-database snapshots per event for
// per-event deltas plus sparse checkpoints, so these counters are what
// BenchmarkVersioning and bench/'s core.delta_log_events report.
type VersioningStats struct {
	// SnapshotBytes approximates the bytes captured into checkpoints and
	// per-relation resets (24 bytes per retained row pointer plus struct
	// overhead) — the residual snapshot cost after the refactor.
	SnapshotBytes int64
	// DeltaLogEvents counts sealed version boundaries (transaction begins,
	// event marks, and commits).
	DeltaLogEvents int
	// Reconstructions counts historical relation versions materialized by
	// walking the delta log (forward from an anchor or backward from live).
	Reconstructions int
	// CheckpointHits counts reconstructions anchored at a checkpoint or
	// per-relation reset (as opposed to inverse walks from the live state).
	CheckpointHits int
	// CacheHits counts version reads served from the reconstruction LRU.
	CacheHits int
}

// checkpoint is a full capture of the database at one version boundary:
// contents plus definition order (so restores reproduce Names exactly).
type checkpoint struct {
	rels  snapshot
	names []string
}

// logEntry describes one version boundary of the delta log: the net change
// transforming the previous boundary's state into this one. Most entries
// carry only per-relation deltas proportional to the event that produced
// them; entries additionally carry full contents when the change cannot be
// expressed as a delta (relation created, replaced wholesale, or the whole
// database rewritten by a version restore).
type logEntry struct {
	// commit marks boundaries that are committed versions (@vnow targets).
	commit bool
	// barrier marks boundaries whose transition is not described by deltas
	// (a RestoreVersion rewrote the live state); backward walks from the
	// live state must not cross it. Barrier entries always checkpoint.
	barrier bool
	// deltas holds the per-relation net change since the previous boundary,
	// keyed lowercase. Applying deltas[k] to the previous state of k yields
	// this boundary's state (bag semantics).
	deltas map[string]relation.Delta
	// resets holds full contents at this boundary for relations whose
	// change was not delta-tracked (created this window, or replaced via
	// Put). A reset is both a backward barrier and a forward anchor for
	// that relation.
	resets map[string]*relation.Relation
	// created lists relations (original-case names) that began existing at
	// this boundary; createdSet indexes them by lowercase key. A relation
	// does not exist at boundaries before the one that created it.
	created    []string
	createdSet map[string]bool
	// cp is the sparse full-state checkpoint bounding reconstruction walks
	// (every checkpointEvery commits, on restore barriers, and always at
	// the oldest retained boundary).
	cp *checkpoint
}

// defaultCheckpointEvery is the commit interval between full checkpoints: a
// reconstruction walks at most this many commit windows forward from its
// anchor. The engine overrides it via Config.CheckpointEvery.
const defaultCheckpointEvery = 16

// versionCacheCap bounds the reconstruction LRU. It is sized so one
// refresh's repeated @tnow-1/@vnow-1 scans (and one trace's version reads)
// all hit the same materialized objects.
const versionCacheCap = 64

// Store is the storage manager: it owns current relation contents and the
// version history backing @vnow-i / @tnow-j references. History is a delta
// log with periodic checkpoints: each Commit/MarkEvent seals only the
// changes recorded since the previous boundary (work proportional to the
// event's delta, not the database), and Resolve reconstructs requested
// versions on demand by walking the log from the nearest anchor — the live
// state going backward, or a checkpoint/reset going forward.
type Store struct {
	rels map[string]*relation.Relation
	// names preserves definition order for deterministic iteration.
	names []string

	maxHistory      int
	checkpointEvery int

	// base is the absolute index of entries[0]; entry at absolute index b
	// transforms the state at boundary b-1 into the state at boundary b.
	// Invariant: entries[0] (when present) carries a checkpoint, so every
	// retained boundary is reconstructable by a forward walk.
	base    int
	entries []logEntry
	// commitAt holds the absolute boundary indices of committed versions,
	// oldest first, bounded by maxHistory.
	commitAt       []int
	droppedCommits int
	commitsSinceCP int

	// txnAt[0] is the boundary sealed at BeginTxn (the transaction-begin
	// state); txnAt[j] the boundary after the j-th applied event. nil
	// outside an interaction.
	txnAt []int

	// pending accumulates the changes recorded since the last sealed
	// boundary. pendUnknown marks relations replaced wholesale (full
	// contents captured at seal); pendCreated relations that began
	// existing; pendResetAll that a restore rewrote the whole database.
	pendDeltas     map[string]relation.Delta
	pendUnknown    map[string]bool
	pendCreated    []string
	pendCreatedSet map[string]bool
	pendResetAll   bool

	// cpLast/cpDirty implement checkpoint sharing: a relation untouched
	// since the previous checkpoint reuses that checkpoint's captured
	// snapshot (captures are immutable — reconstruction copies before
	// applying deltas), so a sparse checkpoint costs O(relations changed
	// since the last one), not O(database). Without this, the periodic
	// checkpoint re-copies every row slice — at million-row base tables
	// that dominates the per-event brush budget the data cubes just freed.
	cpLast  *checkpoint
	cpDirty map[string]bool

	cache versionCache
	stats *VersioningStats

	// sink, when set, receives one wal record per sealed boundary and per
	// control operation (rollback / restore) — the durable delta log. walRec
	// staggers the sealed-window record so it is emitted only after the
	// caller's bookkeeping (commitAt, txnAt) is consistent; a segment
	// rotation inside the emit may then snapshot the store as a checkpoint.
	sink   func(wal.Record)
	walRec wal.Record
}

// NewStore creates an empty store keeping up to maxHistory committed
// versions (0 means the default of 64).
func NewStore(maxHistory int) *Store {
	if maxHistory <= 0 {
		maxHistory = 64
	}
	return &Store{
		rels:            make(map[string]*relation.Relation),
		maxHistory:      maxHistory,
		checkpointEvery: defaultCheckpointEvery,
		stats:           &VersioningStats{},
	}
}

func keyOf(name string) string { return strings.ToLower(name) }

// Stats returns a copy of the versioning counters.
func (s *Store) Stats() VersioningStats { return *s.stats }

// Put installs or replaces a relation's current contents. Replacing an
// existing relation is an unknown change for the delta log: its full
// contents are captured at the next version boundary. Callers that know
// the precise delta (the engine's view maintenance) use putQuiet plus
// recordChange instead.
func (s *Store) Put(rel *relation.Relation) {
	if s.install(rel) {
		return
	}
	s.recordUnknown(rel.Name)
}

// putQuiet is Put for callers that record the replacement's exact delta
// themselves; new relations are still noted as created.
func (s *Store) putQuiet(rel *relation.Relation) {
	s.install(rel)
}

// install stores the relation and returns true when the name is new (in
// which case the creation is noted in the pending window).
func (s *Store) install(rel *relation.Relation) bool {
	k := keyOf(rel.Name)
	s.markCPDirty(k)
	if _, ok := s.rels[k]; !ok {
		s.names = append(s.names, rel.Name)
		s.rels[k] = rel
		s.noteCreated(rel.Name)
		return true
	}
	s.rels[k] = rel
	return false
}

func (s *Store) noteCreated(name string) {
	if s.pendResetAll {
		return // the next boundary checkpoints everything anyway
	}
	k := keyOf(name)
	if s.pendCreatedSet[k] {
		return
	}
	if s.pendCreatedSet == nil {
		s.pendCreatedSet = map[string]bool{}
	}
	s.pendCreatedSet[k] = true
	s.pendCreated = append(s.pendCreated, name)
}

// recordChange accumulates one relation's delta into the pending window.
// The engine calls it at every mutation site (base-table writes, view
// delta applies, fallback recompute diffs), which is what lets MarkEvent
// and Commit seal boundaries in O(delta) instead of O(database).
func (s *Store) recordChange(name string, d relation.Delta) {
	if d.Empty() {
		return
	}
	k := keyOf(name)
	s.markCPDirty(k)
	if s.pendResetAll {
		return
	}
	if s.pendUnknown[k] || s.pendCreatedSet[k] {
		return // full contents are captured at the boundary anyway
	}
	if s.pendDeltas == nil {
		s.pendDeltas = map[string]relation.Delta{}
	}
	prev, ok := s.pendDeltas[k]
	if !ok {
		s.pendDeltas[k] = d
		return
	}
	s.pendDeltas[k] = relation.Compose(prev, d)
}

// recordUnknown marks a relation as changed in an unknown way: the next
// boundary captures its full contents (a per-relation reset).
func (s *Store) recordUnknown(name string) {
	k := keyOf(name)
	s.markCPDirty(k)
	if s.pendResetAll {
		return
	}
	if s.pendCreatedSet[k] {
		return // created this window: contents captured at seal regardless
	}
	if s.pendUnknown == nil {
		s.pendUnknown = map[string]bool{}
	}
	s.pendUnknown[k] = true
	delete(s.pendDeltas, k)
}

func (s *Store) clearPending() {
	s.pendDeltas, s.pendUnknown = nil, nil
	s.pendCreated, s.pendCreatedSet = nil, nil
	s.pendResetAll = false
}

// Has reports whether a relation exists.
func (s *Store) Has(name string) bool {
	_, ok := s.rels[keyOf(name)]
	return ok
}

// Get returns the current contents of a relation.
func (s *Store) Get(name string) (*relation.Relation, error) {
	r, ok := s.rels[keyOf(name)]
	if !ok {
		return nil, fmt.Errorf("unknown relation %q", name)
	}
	return r, nil
}

// ApproxBytes estimates the live store's memory (row-pointer cost per
// relation, the same accounting relBytes uses for checkpoints). The server
// benchmarks use it for the shared-vs-private memory split.
func (s *Store) ApproxBytes() int64 {
	var b int64
	for _, r := range s.rels {
		b += relBytes(r)
	}
	return b
}

// Names lists relations in definition order.
func (s *Store) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// tailAbs is the absolute index of the newest sealed boundary (-1 when no
// boundary has been sealed yet).
func (s *Store) tailAbs() int { return s.base + len(s.entries) - 1 }

// entryAt returns the entry for an absolute boundary index.
func (s *Store) entryAt(abs int) *logEntry { return &s.entries[abs-s.base] }

// captureRel shallow-copies one relation into the log, counting the bytes.
func (s *Store) captureRel(r *relation.Relation) *relation.Relation {
	cp := r.Snapshot()
	s.stats.SnapshotBytes += relBytes(cp)
	return cp
}

func relBytes(r *relation.Relation) int64 { return int64(64 + 24*len(r.Rows)) }

func (s *Store) captureCheckpoint() *checkpoint {
	cp := &checkpoint{rels: make(snapshot, len(s.rels)), names: append([]string(nil), s.names...)}
	for k, r := range s.rels {
		if s.cpLast != nil && !s.cpDirty[k] {
			if prev, ok := s.cpLast.rels[k]; ok {
				cp.rels[k] = prev // unchanged since last checkpoint: share
				continue
			}
		}
		cp.rels[k] = s.captureRel(r)
	}
	s.cpLast = cp
	s.cpDirty = nil
	return cp
}

// markCPDirty notes that a relation's contents diverged from the last
// checkpoint's capture (so the next checkpoint must re-copy it).
func (s *Store) markCPDirty(k string) {
	if s.cpDirty == nil {
		s.cpDirty = map[string]bool{}
	}
	s.cpDirty[k] = true
}

// seal closes the pending window into a new version boundary and returns
// its absolute index. Cost is proportional to the window's recorded deltas
// (plus full captures only for created/reset relations and sparse
// checkpoints), which is the tentpole property: MarkEvent and Commit no
// longer copy the database.
func (s *Store) seal(op wal.SealOp) int {
	commit := op == wal.SealCommit
	e := logEntry{commit: commit}
	needCP := s.pendResetAll || len(s.entries) == 0
	if commit {
		s.commitsSinceCP++
		if s.commitsSinceCP >= s.checkpointEvery {
			needCP = true
		}
	}
	if needCP {
		e.cp = s.captureCheckpoint()
		s.commitsSinceCP = 0
	}
	if s.pendResetAll {
		e.barrier = true
	} else {
		if len(s.pendDeltas) > 0 {
			e.deltas = s.pendDeltas
		}
		if len(s.pendUnknown)+len(s.pendCreated) > 0 {
			e.resets = make(map[string]*relation.Relation, len(s.pendUnknown)+len(s.pendCreated))
			for k := range s.pendUnknown {
				if r, ok := s.rels[k]; ok {
					e.resets[k] = s.captureRel(r)
				}
			}
			for _, name := range s.pendCreated {
				if r, ok := s.rels[keyOf(name)]; ok {
					e.resets[keyOf(name)] = s.captureRel(r)
				}
			}
			e.created = s.pendCreated
			e.createdSet = s.pendCreatedSet
		}
	}
	if s.sink != nil {
		s.walRec = changeRecord(op, &e)
	}
	s.clearPending()
	s.entries = append(s.entries, e)
	s.stats.DeltaLogEvents++
	return s.tailAbs()
}

// changeRecord serializes one sealed window for the wal sink. Barrier
// windows (after a RestoreVersion) carry nothing: the preceding restore
// control record reproduces their state on replay. Writes never land
// inside a barrier window — the engine seals it first via
// SealRestoreBarrier — so the empty record loses nothing.
func changeRecord(op wal.SealOp, e *logEntry) *wal.ChangeRecord {
	rec := &wal.ChangeRecord{Seal: op, Created: e.created}
	for k, d := range e.deltas {
		rec.Deltas = append(rec.Deltas, wal.NamedDelta{Name: k, Delta: d})
	}
	sort.Slice(rec.Deltas, func(i, j int) bool { return rec.Deltas[i].Name < rec.Deltas[j].Name })
	for _, r := range e.resets {
		rec.Resets = append(rec.Resets, r)
	}
	sort.Slice(rec.Resets, func(i, j int) bool {
		return keyOf(rec.Resets[i].Name) < keyOf(rec.Resets[j].Name)
	})
	return rec
}

// emitWAL flushes the record staged by seal. Callers invoke it after their
// boundary bookkeeping is complete, so a checkpoint taken during a segment
// rotation inside the append sees a consistent store.
func (s *Store) emitWAL() {
	if s.walRec != nil {
		rec := s.walRec
		s.walRec = nil
		s.sink(rec)
	}
}

// walCheckpoint is the segment-rotation snapshot provider: the full live
// state plus the total commit count, offered only at a committed rest state
// (no pending changes, no transaction, log tail == newest commit) so replay
// can seed the checkpoint as that committed version. Anywhere else it
// returns nil and the rotation waits.
func (s *Store) walCheckpoint() *wal.CheckpointRecord {
	if s.txnAt != nil || s.pendResetAll || len(s.pendDeltas)+len(s.pendUnknown)+len(s.pendCreated) > 0 {
		return nil
	}
	if len(s.commitAt) == 0 || s.commitAt[len(s.commitAt)-1] != s.tailAbs() {
		return nil
	}
	cp := &wal.CheckpointRecord{
		Commits: s.droppedCommits + len(s.commitAt),
		Rels:    make([]*relation.Relation, 0, len(s.names)),
	}
	for _, nm := range s.names {
		cp.Rels = append(cp.Rels, s.rels[keyOf(nm)].Snapshot())
	}
	return cp
}

// Commit seals the pending changes as a new committed version, compacts
// the finished transaction's now-unreachable event boundaries into it,
// evicts history beyond maxHistory, and clears the transaction event
// history. Returns the committed version index.
func (s *Store) Commit() int {
	abs := s.seal(wal.SealCommit)
	abs = s.compactWindow(abs)
	s.commitAt = append(s.commitAt, abs)
	if len(s.commitAt) > s.maxHistory {
		over := len(s.commitAt) - s.maxHistory
		s.commitAt = append(s.commitAt[:0:0], s.commitAt[over:]...)
		s.droppedCommits += over
		s.trim()
	}
	s.txnAt = nil
	s.emitWAL()
	return s.droppedCommits + len(s.commitAt) - 1
}

// compactWindow merges every boundary between the previous commit and the
// just-sealed commit entry at abs into one entry, returning the commit's
// new absolute index. Once Commit clears the transaction history those
// per-event boundaries can never be referenced again, yet without
// compaction every forward walk across the commit window would replay
// each event's delta separately and the log would retain one entry per
// drag event for up to maxHistory commit windows. Windows containing a
// checkpoint or restore barrier are left unmerged (rare, and the
// checkpoint must keep its own boundary).
func (s *Store) compactWindow(abs int) int {
	start := s.base
	if n := len(s.commitAt); n > 0 {
		start = s.commitAt[n-1] + 1
	}
	i, j := start-s.base, abs-s.base
	if j <= i {
		return abs // no event boundaries between the commits
	}
	for k := i; k <= j; k++ {
		if s.entries[k].cp != nil || s.entries[k].barrier {
			return abs
		}
	}
	merged := logEntry{commit: true}
	for k := i; k <= j; k++ {
		if !mergeEntry(&merged, &s.entries[k]) {
			return abs // inconsistent fold: keep the unmerged entries
		}
	}
	// mergeEntry concatenates window deltas without netting them (so the
	// fold is linear in the window's rows); consolidate each relation once
	// here. Rows a drag added and removed within the window vanish.
	for k, d := range merged.deltas {
		d = d.Consolidate()
		if d.Empty() {
			delete(merged.deltas, k)
		} else {
			merged.deltas[k] = d
		}
	}
	s.entries = append(s.entries[:i], merged)
	s.cache.purgeAbove(start - 1)
	return start
}

// mergeEntry folds one boundary's changes into an accumulating entry (in
// boundary order). Reports false if a delta cannot be applied on top of an
// accumulated reset.
func mergeEntry(dst, e *logEntry) bool {
	for _, nm := range e.created {
		k := keyOf(nm)
		if dst.createdSet == nil {
			dst.createdSet = map[string]bool{}
		}
		if !dst.createdSet[k] {
			dst.createdSet[k] = true
			dst.created = append(dst.created, nm)
		}
	}
	for k, r := range e.resets {
		// A reset supersedes whatever the window did to the relation so far.
		if dst.resets == nil {
			dst.resets = map[string]*relation.Relation{}
		}
		dst.resets[k] = r
		delete(dst.deltas, k)
	}
	for k, d := range e.deltas {
		if r, ok := dst.resets[k]; ok {
			// Changes on top of captured contents fold into the capture.
			nr := r.Snapshot()
			if err := nr.ApplyDelta(d); err != nil {
				return false
			}
			dst.resets[k] = nr
			continue
		}
		if dst.deltas == nil {
			dst.deltas = map[string]relation.Delta{}
		}
		// Concatenate only — netting Ins against Del on every fold would
		// re-hash the accumulated delta per merged boundary (quadratic in
		// the window). compactWindow consolidates once after the fold. The
		// first fold copies so later appends never write into a source
		// entry's spare capacity.
		prev, ok := dst.deltas[k]
		if !ok {
			prev = relation.Delta{
				Ins: append(make([]relation.Tuple, 0, len(d.Ins)), d.Ins...),
				Del: append(make([]relation.Tuple, 0, len(d.Del)), d.Del...),
			}
		} else {
			prev.Ins = append(prev.Ins, d.Ins...)
			prev.Del = append(prev.Del, d.Del...)
		}
		dst.deltas[k] = prev
	}
	return true
}

// trim drops log entries no reconstruction can need: everything below the
// newest checkpoint at or before the oldest retained commit. Entries
// between that checkpoint and the oldest commit are kept even though their
// commits were evicted — dropping them would orphan the deltas later
// boundaries reconstruct through.
func (s *Store) trim() {
	oldest := s.commitAt[0]
	cut := -1
	for i := oldest - s.base; i >= 0; i-- {
		if s.entries[i].cp != nil {
			cut = i
			break
		}
	}
	if cut <= 0 {
		return
	}
	s.base += cut
	s.entries = append(s.entries[:0:0], s.entries[cut:]...)
	s.cache.purgeBelow(s.base)
}

// Versions returns the number of committed versions currently retained.
func (s *Store) Versions() int { return len(s.commitAt) }

// BeginTxn seals the pre-event state as the transaction-begin boundary and
// starts the intra-transaction event history.
func (s *Store) BeginTxn() {
	s.txnAt = []int{s.seal(wal.SealBegin)}
	s.emitWAL()
}

// MarkEvent seals the changes of one applied event as a new @tnow
// boundary. Unlike the snapshot store this is O(event delta).
func (s *Store) MarkEvent() {
	if s.txnAt != nil {
		s.txnAt = append(s.txnAt, s.seal(wal.SealEvent))
		s.emitWAL()
	}
}

// InTxn reports whether an interaction transaction is in flight.
func (s *Store) InTxn() bool { return s.txnAt != nil }

// Resolve implements plan.Catalog: it returns a relation's contents at the
// requested version.
//
//   - current (no suffix): the live working state;
//   - @vnow-0: alias for the live state; @vnow-i (i≥1): the state committed
//     i transactions ago (during an interaction, @vnow-1 is the state at the
//     beginning of the interaction, exactly as DeVIL 3 uses it);
//   - @tnow-0: the state after the latest applied event of the current
//     interaction; @tnow-j: j events earlier. Outside an interaction @tnow
//     resolves to the live state.
//
// Historical states are reconstructed on demand from the delta log.
// Reconstruction preserves the bag of tuples but not necessarily the
// physical row order the original state had (see finish); callers must
// treat results as read-only, exactly as with live relations, and match
// rows by tuple identity rather than position.
func (s *Store) Resolve(name string, v relation.VersionRef) (*relation.Relation, error) {
	switch v.Kind {
	case relation.VersionCurrent:
		return s.Get(name)
	case relation.VersionVNow:
		if v.Offset == 0 || len(s.commitAt) == 0 {
			// Before enough history exists (e.g. while the initial program
			// is still loading), clamp to the oldest state available: the
			// live state when nothing has been committed yet. DeVIL 3-style
			// @vnow-1 references thus resolve meaningfully during load.
			return s.Get(name)
		}
		idx := len(s.commitAt) - v.Offset
		if idx < 0 {
			idx = 0 // clamp to the oldest retained version
		}
		return s.stateRelAt(name, s.commitAt[idx], v)
	case relation.VersionTNow:
		// "Now" is the event currently being applied: @tnow-0 is the live
		// state (including the in-flight event's effects so far); @tnow-j
		// (j ≥ 1) is the state after the j-th previous event, clamping at
		// the transaction begin state. Views are recomputed mid-event, so
		// during event k the history top is the state after event k-1.
		if len(s.txnAt) == 0 || v.Offset == 0 {
			return s.Get(name)
		}
		idx := len(s.txnAt) - v.Offset
		if idx < 0 {
			idx = 0 // clamp to transaction begin
		}
		return s.stateRelAt(name, s.txnAt[idx], v)
	default:
		return nil, fmt.Errorf("unknown version kind %d", v.Kind)
	}
}

// quiescent reports that the relation has not changed since the last
// sealed boundary, so the live contents are that boundary's state.
func (s *Store) quiescent(k string) bool {
	if s.pendResetAll || s.pendUnknown[k] || s.pendCreatedSet[k] {
		return false
	}
	_, touched := s.pendDeltas[k]
	return !touched
}

// stateRelAt materializes one relation as of the boundary at absolute
// index abs. The walk starts from whichever valid anchor is nearest: the
// live state (inverting deltas backward; blocked by resets, creations, and
// restore barriers) or the newest checkpoint/reset at or before abs
// (applying deltas forward). Results are cached in a small LRU so repeated
// scans of the same version within one refresh or trace share one object.
func (s *Store) stateRelAt(name string, abs int, v relation.VersionRef) (*relation.Relation, error) {
	k := keyOf(name)
	// Fast path: nothing happened to this relation since the boundary was
	// sealed, so the live contents are the requested state.
	if abs == s.tailAbs() && s.quiescent(k) {
		if r, ok := s.rels[k]; ok {
			return r, nil
		}
		return nil, s.notExist(name, v)
	}
	if r, ok := s.cache.get(k, abs); ok {
		s.stats.CacheHits++
		return r, nil
	}

	// Forward anchor: the newest boundary ≤ abs that pins this relation's
	// full contents. Scanning also decides existence: a checkpoint without
	// the relation (and no creation since) means it does not exist at abs.
	i := abs - s.base
	if i < 0 || i >= len(s.entries) {
		return nil, fmt.Errorf("resolve %s%s: version boundary %d outside retained log [%d,%d]",
			name, v, abs, s.base, s.tailAbs())
	}
	anchor, start := -1, (*relation.Relation)(nil)
	for j := i; j >= 0; j-- {
		e := &s.entries[j]
		if e.resets != nil {
			if r, ok := e.resets[k]; ok {
				anchor, start = j, r
				break
			}
		}
		if e.cp != nil {
			r, ok := e.cp.rels[k]
			if !ok {
				return nil, s.notExist(name, v)
			}
			anchor, start = j, r
			break
		}
	}
	if anchor < 0 {
		return nil, s.notExist(name, v)
	}
	forwardDist := i - anchor

	// Backward feasibility: live minus pending minus the entries above abs,
	// valid only while every step is a pure delta for this relation.
	backDist := -1
	if live, ok := s.rels[k]; ok && !s.pendResetAll && !s.pendUnknown[k] && !s.pendCreatedSet[k] {
		tail := len(s.entries) - 1
		feasible := true
		for j := tail; j > i; j-- {
			e := &s.entries[j]
			if e.barrier || e.createdSet[k] {
				feasible = false
				break
			}
			if e.resets != nil {
				if _, blocked := e.resets[k]; blocked {
					feasible = false
					break
				}
			}
		}
		if feasible {
			backDist = tail - i + 1
			if backDist <= forwardDist {
				if rel, err := s.walkBackward(live, k, i); err == nil {
					return s.finish(k, abs, rel), nil
				}
				// Inconsistent bookkeeping (host mutated a relation behind
				// the store's back): fall through to the forward walk.
			}
		}
	}
	s.stats.CheckpointHits++
	rel, err := s.walkForward(start, k, anchor, i)
	if err != nil {
		return nil, fmt.Errorf("resolve %s%s: %w", name, v, err)
	}
	return s.finish(k, abs, rel), nil
}

func (s *Store) walkBackward(live *relation.Relation, k string, i int) (*relation.Relation, error) {
	rel := live.Snapshot()
	if d, ok := s.pendDeltas[k]; ok {
		if err := rel.ApplyDelta(d.Invert()); err != nil {
			return nil, err
		}
	}
	for j := len(s.entries) - 1; j > i; j-- {
		if d, ok := s.entries[j].deltas[k]; ok {
			if err := rel.ApplyDelta(d.Invert()); err != nil {
				return nil, err
			}
		}
	}
	return rel, nil
}

func (s *Store) walkForward(start *relation.Relation, k string, anchor, i int) (*relation.Relation, error) {
	rel := start.Snapshot()
	for j := anchor + 1; j <= i; j++ {
		if d, ok := s.entries[j].deltas[k]; ok {
			if err := rel.ApplyDelta(d); err != nil {
				return nil, err
			}
		}
	}
	return rel, nil
}

// finish caches a reconstructed version. Reconstruction replays deltas in
// the order they were applied (or their inverses), which reproduces the
// original physical row order exactly for append-dominated histories and a
// bag-equal order otherwise; consumers that need row identity across
// orders (the provenance tracer) match by tuple key.
func (s *Store) finish(k string, abs int, rel *relation.Relation) *relation.Relation {
	s.stats.Reconstructions++
	s.cache.put(k, abs, rel)
	return rel
}

func (s *Store) notExist(name string, v relation.VersionRef) error {
	return fmt.Errorf("relation %q does not exist at version %s", name, v)
}

// namesAt reconstructs the definition-ordered relation list as of a
// boundary: the nearest checkpoint's names plus every creation since.
func (s *Store) namesAt(abs int) ([]string, error) {
	i := abs - s.base
	if i < 0 || i >= len(s.entries) {
		return nil, fmt.Errorf("version boundary %d outside retained log", abs)
	}
	for j := i; j >= 0; j-- {
		if cp := s.entries[j].cp; cp != nil {
			names := append([]string(nil), cp.names...)
			for jj := j + 1; jj <= i; jj++ {
				names = append(names, s.entries[jj].created...)
			}
			return names, nil
		}
	}
	return nil, fmt.Errorf("no checkpoint at or before boundary %d", abs)
}

// restoreTo rewinds the live state to the boundary at abs exactly:
// relations absent from that version are deleted, relations deleted since
// are revived, and every relation's contents are reconstructed from the
// log.
func (s *Store) restoreTo(abs int, v relation.VersionRef) error {
	names, err := s.namesAt(abs)
	if err != nil {
		return err
	}
	newRels := make(map[string]*relation.Relation, len(names))
	for _, nm := range names {
		r, err := s.stateRelAt(nm, abs, v)
		if err != nil {
			return err
		}
		newRels[keyOf(nm)] = r.Snapshot()
	}
	s.rels = newRels
	s.names = names
	// The whole live state was replaced; nothing may share the previous
	// checkpoint's captures.
	s.cpLast, s.cpDirty = nil, nil
	return nil
}

// Rollback restores the live state to the last committed version (the state
// at the beginning of the current interaction) and clears the transaction
// history. It is the storage half of an interaction abort. Relations
// created after that version are deleted, so the rollback is exact.
func (s *Store) Rollback() error {
	if len(s.commitAt) == 0 {
		return fmt.Errorf("rollback: no committed version exists")
	}
	target := s.commitAt[len(s.commitAt)-1]
	if err := s.restoreTo(target, relation.VNow(1)); err != nil {
		return err
	}
	// The discarded event boundaries can never be referenced again (@tnow
	// history is cleared and no commit points above target); truncating
	// them realigns the log tail with the restored live state.
	s.entries = s.entries[:target-s.base+1]
	s.cache.purgeAbove(target)
	s.txnAt = nil
	s.clearPending()
	if s.sink != nil {
		s.sink(&wal.ControlRecord{Op: wal.CtlRollback})
	}
	return nil
}

// RestoreVersion rewinds the live state to vnow-i (i ≥ 1), the mechanism
// behind undo (§2.1.3's "undo and redo is supported by the versioning
// semantics"). The committed history is preserved — redo is a further
// restore — so the next sealed boundary records a full checkpoint (the
// live state no longer derives from the log tail by any delta).
func (s *Store) RestoreVersion(i int) error {
	if i < 1 {
		return fmt.Errorf("restore: offset must be >= 1")
	}
	idx := len(s.commitAt) - i
	if idx < 0 {
		return fmt.Errorf("restore: only %d committed versions exist", len(s.commitAt))
	}
	if err := s.restoreTo(s.commitAt[idx], relation.VNow(i)); err != nil {
		return err
	}
	s.clearPending()
	s.pendResetAll = true
	if s.sink != nil {
		s.sink(&wal.ControlRecord{Op: wal.CtlRestore, Version: i})
	}
	return nil
}

// SealRestoreBarrier closes the restore window opened by RestoreVersion
// without waiting for the next commit/event boundary. While pendResetAll is
// set, recordChange drops deltas (the barrier entry checkpoints live state
// instead), which is correct in memory but means writes landing inside the
// window would never reach the WAL — the barrier's change record carries
// nothing and the restore control record only reproduces the rewound state.
// The engine therefore calls this before accepting any post-restore write,
// so the barrier seals first and subsequent deltas journal normally. A
// no-op when no restore window is open. Inside a transaction the barrier
// seals as an event boundary (MarkEvent replays it deterministically);
// outside it seals as a dedicated SealBarrier record replayed via this
// same method.
func (s *Store) SealRestoreBarrier() {
	if !s.pendResetAll {
		return
	}
	if s.txnAt != nil {
		s.txnAt = append(s.txnAt, s.seal(wal.SealEvent))
	} else {
		s.seal(wal.SealBarrier)
	}
	s.emitWAL()
}

// --- reconstruction cache ---

type cacheKey struct {
	name string // lowercase relation key
	abs  int    // absolute boundary index
}

// versionCache is a tiny LRU of reconstructed relation versions. States at
// sealed boundaries are immutable, so entries stay valid until their
// boundary is evicted (purgeBelow) or truncated by a rollback (purgeAbove).
type versionCache struct {
	m     map[cacheKey]*relation.Relation
	order []cacheKey // least recently used first
}

func (c *versionCache) get(name string, abs int) (*relation.Relation, bool) {
	r, ok := c.m[cacheKey{name, abs}]
	if ok {
		c.touch(cacheKey{name, abs})
	}
	return r, ok
}

func (c *versionCache) put(name string, abs int, r *relation.Relation) {
	if c.m == nil {
		c.m = make(map[cacheKey]*relation.Relation, versionCacheCap)
	}
	k := cacheKey{name, abs}
	if _, ok := c.m[k]; !ok {
		if len(c.order) >= versionCacheCap {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.m, oldest)
		}
		c.order = append(c.order, k)
	} else {
		c.touch(k)
	}
	c.m[k] = r
}

func (c *versionCache) touch(k cacheKey) {
	for i, o := range c.order {
		if o == k {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), k)
			return
		}
	}
}

func (c *versionCache) purge(drop func(cacheKey) bool) {
	kept := c.order[:0]
	for _, k := range c.order {
		if drop(k) {
			delete(c.m, k)
		} else {
			kept = append(kept, k)
		}
	}
	c.order = kept
}

func (c *versionCache) purgeBelow(base int) { c.purge(func(k cacheKey) bool { return k.abs < base }) }
func (c *versionCache) purgeAbove(abs int)  { c.purge(func(k cacheKey) bool { return k.abs > abs }) }

// --- historical catalogs ---

// shiftedCatalog resolves relation references as of a past committed
// version: current references resolve to vnow-shift, and vnow-i references
// deepen to vnow-(i+shift). The provenance tracer uses it to compute exact
// lineage for versioned scans like SPLOT_POINTS@vnow-1.
type shiftedCatalog struct {
	store *Store
	shift int
}

// Resolve implements plan.Catalog at a historical offset.
func (c *shiftedCatalog) Resolve(name string, v relation.VersionRef) (*relation.Relation, error) {
	switch v.Kind {
	case relation.VersionCurrent:
		return c.store.Resolve(name, relation.VNow(c.shift))
	case relation.VersionVNow:
		if v.Offset == 0 {
			return c.store.Resolve(name, relation.VNow(c.shift))
		}
		return c.store.Resolve(name, relation.VNow(v.Offset+c.shift))
	default:
		return c.store.Resolve(name, v)
	}
}

// CatalogAt returns a plan.Catalog view of the store as of vnow-shift
// (shift 0 is the live state).
func (s *Store) CatalogAt(shift int) plan.Catalog {
	if shift == 0 {
		return s
	}
	return &shiftedCatalog{store: s, shift: shift}
}
