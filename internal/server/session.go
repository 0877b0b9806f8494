package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/relation"
	"repro/internal/render"
	"repro/internal/wal"
)

// Session is one client's private slice of the server: its own event
// recognizers and compound tables, selection-dependent views, framebuffer,
// version history, and stats — everything else resolves against the shared
// base. Session methods are safe to call concurrently with other sessions'
// (they hold the server read lock); a single session serializes itself.
type Session struct {
	id     int
	token  string // stable resume identity (outlives the session object)
	srv    *Server
	eng    *core.Engine
	closed atomic.Bool
	used   atomic.Int64 // unix nanos of last use

	// commitEpochs records the server write epoch at each of this session's
	// committed versions (parallel to the engine's commit history). A
	// rollback (interaction abort) or undo restores private views computed
	// against that epoch's shared data; if the base has advanced since, the
	// restored views are stale relative to the live shared relations —
	// which session transactions never roll back — and must resync. Guarded
	// by the session's single-caller discipline plus the server read lock.
	commitEpochs []int64
}

// syncAfterRestore recomputes the session views that read shared relations
// when the restored private state predates the current write epoch. Caller
// holds the server read lock.
func (ss *Session) syncAfterRestore(restoredEpoch int64) error {
	if restoredEpoch == ss.srv.epoch {
		return nil
	}
	return ss.eng.ApplyExternalDeltas(ss.srv.unknownSharedChanges())
}

// lastCommitEpoch is the epoch of the session's newest committed version.
func (ss *Session) lastCommitEpoch() int64 {
	if len(ss.commitEpochs) == 0 {
		return -1
	}
	return ss.commitEpochs[len(ss.commitEpochs)-1]
}

// ID identifies the session within its server.
func (ss *Session) ID() int { return ss.id }

// Token is the session's stable resume identity: it survives connection
// drops, idle eviction, and (under a durable server) process restarts.
// Resume(token) rebuilds the session's private state from its journal.
func (ss *Session) Token() string { return ss.token }

func (ss *Session) touch() { ss.used.Store(time.Now().UnixNano()) }

func (ss *Session) lastUsed() time.Time { return time.Unix(0, ss.used.Load()) }

// guard takes the server read lock and rejects detached sessions. The
// returned release must be called when the operation finishes.
func (ss *Session) guard() (func(), error) {
	if ss.closed.Load() {
		return nil, fmt.Errorf("session %d is detached", ss.id)
	}
	ss.srv.mu.RLock()
	if ss.closed.Load() { // lost a race with eviction
		ss.srv.mu.RUnlock()
		return nil, fmt.Errorf("session %d is detached", ss.id)
	}
	ss.touch()
	return ss.srv.mu.RUnlock, nil
}

// Feed routes events through this session's recognizers: private views
// update (probing the shared build-side states), the session framebuffer
// re-renders, and interaction transactions commit into the session's own
// history.
func (ss *Session) Feed(evs ...events.Event) (core.TxnEvent, error) {
	release, err := ss.guard()
	if err != nil {
		return core.TxnEvent{}, err
	}
	defer release()
	var last core.TxnEvent
	for _, ev := range evs {
		if last, err = ss.eng.FeedEvent(ev); err != nil {
			return last, err
		}
		ss.journal(wal.SessEvent, ev)
		if err := ss.noteTxn(last); err != nil {
			return last, err
		}
	}
	return last, nil
}

// journal appends one op to this session's resume journal (and, under a
// durable server, to the log). Only successfully applied ops are journaled,
// so a resume replay reproduces exactly the state the client saw. Caller
// holds the server read lock.
func (ss *Session) journal(op wal.SessionOp, ev events.Event) {
	ss.srv.journalAppend(wal.SessionRecord{Token: ss.token, Op: op, Event: ev})
}

// noteTxn tracks commit epochs and resyncs after aborts. Caller holds the
// server read lock.
func (ss *Session) noteTxn(te core.TxnEvent) error {
	switch {
	case te.Committed:
		// The live state is consistent with the current epoch (fan-outs
		// apply to live views); record it for this committed version.
		ss.commitEpochs = append(ss.commitEpochs, ss.srv.epoch)
	case te.Aborted:
		// The rollback restored the last committed version's private views.
		return ss.syncAfterRestore(ss.lastCommitEpoch())
	}
	return nil
}

// FeedStream feeds a whole event stream, returning per-event summaries.
func (ss *Session) FeedStream(stream events.Stream) ([]core.TxnEvent, error) {
	release, err := ss.guard()
	if err != nil {
		return nil, err
	}
	defer release()
	out := make([]core.TxnEvent, 0, len(stream))
	for _, ev := range stream {
		te, err := ss.eng.FeedEvent(ev)
		if err != nil {
			return out, err
		}
		ss.journal(wal.SessEvent, ev)
		out = append(out, te)
		if err := ss.noteTxn(te); err != nil {
			return out, err
		}
	}
	return out, nil
}

// Relation reads a private view or (fallback) a shared relation. The
// result is a snapshot (rows slice copied under the server read lock):
// callers keep using it after the lock drops, concurrently with the
// writer's in-place fan-out patches to the live relations.
func (ss *Session) Relation(name string) (*relation.Relation, error) {
	release, err := ss.guard()
	if err != nil {
		return nil, err
	}
	defer release()
	rel, err := ss.eng.Relation(name)
	if err != nil {
		return nil, err
	}
	return rel.Snapshot(), nil
}

// Query evaluates an ad-hoc DeVIL query over the session's combined
// namespace (private views shadow nothing — shared names resolve when the
// session has no relation of that name). Snapshotted like Relation: a bare
// scan would otherwise pass the live rows slice through.
func (ss *Session) Query(q string) (*relation.Relation, error) {
	release, err := ss.guard()
	if err != nil {
		return nil, err
	}
	defer release()
	rel, err := ss.eng.Query(q)
	if err != nil {
		return nil, err
	}
	return rel.Snapshot(), nil
}

// Undo rewinds the session's private state to its previous committed
// version. Shared data is unaffected — undo is a per-client operation; if
// the base advanced since that version was committed, the restored views
// resync against the live shared relations.
func (ss *Session) Undo() error {
	release, err := ss.guard()
	if err != nil {
		return err
	}
	defer release()
	if err := ss.undoLocked(); err != nil {
		return err
	}
	ss.journal(wal.SessUndo, events.Event{})
	return nil
}

// undoLocked is Undo's body, shared with journal replay (which must not
// re-journal). Caller holds the server read lock.
func (ss *Session) undoLocked() error {
	n := len(ss.commitEpochs)
	if err := ss.eng.Undo(); err != nil {
		return err
	}
	restored := int64(-1)
	if n >= 2 {
		restored = ss.commitEpochs[n-2]
	}
	if err := ss.syncAfterRestore(restored); err != nil {
		return err
	}
	// Undo committed the restored state as a new version; after a resync it
	// is consistent with the current epoch, otherwise with the restored one.
	epoch := restored
	if restored != ss.srv.epoch {
		epoch = ss.srv.epoch
	}
	ss.commitEpochs = append(ss.commitEpochs, epoch)
	return nil
}

// Pixels materializes this session's pixels relation.
func (ss *Session) Pixels(sparse bool) (*relation.Relation, error) {
	release, err := ss.guard()
	if err != nil {
		return nil, err
	}
	defer release()
	return ss.eng.Pixels(sparse), nil
}

// Image returns the session framebuffer (stable pointer; do not read while
// concurrently feeding this same session).
func (ss *Session) Image() *render.Image { return ss.eng.Image() }

// Stats snapshots the session engine's counters.
func (ss *Session) Stats() (core.Stats, error) {
	release, err := ss.guard()
	if err != nil {
		return core.Stats{}, err
	}
	defer release()
	return ss.eng.StatsSnapshot(), nil
}

// ResetStats zeroes the session engine's counters.
func (ss *Session) ResetStats() error {
	release, err := ss.guard()
	if err != nil {
		return err
	}
	defer release()
	ss.eng.ResetStats()
	return nil
}

// Detach removes the session from the server and releases its shared-state
// references; further operations fail. Idempotent.
func (ss *Session) Detach() {
	ss.srv.detach(ss, false)
}
