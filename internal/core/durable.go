package core

// Durable delta log: the store's sealed windows and control operations
// stream into a wal.Log, and recovery replays them through the store's own
// sealing machinery — the store is deterministic given the operation
// sequence, so checkpoints, window compaction, history trimming, and the
// whole @vnow/@tnow reconstruction apparatus rebuild themselves instead of
// being serialized.

import (
	"fmt"

	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/wal"
)

// AttachWAL streams this engine's store boundaries into the log and
// installs the store's checkpoint provider for segment rotation. Attach on
// a fresh engine before loading the program (so the load itself is logged)
// or immediately after RecoverEngine (the recovered history is already on
// disk); server.NewDurable, the one host that logs, does both. Append
// failures are sticky inside the log: the engine keeps running in memory and
// the host reads log.Err() to learn durability was lost.
func (e *Engine) AttachWAL(l *wal.Log) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store.sink = func(r wal.Record) { _ = l.Append(r) }
	l.SetCheckpointFunc(e.store.walCheckpoint)
	// Route the log's append/fsync latency histograms into this engine's
	// metrics registry (nil registry on the DisableObs arm disables them).
	l.SetObs(e.obs.Registry())
}

// DetachWAL stops logging (used by graceful shutdown after the final seal).
func (e *Engine) DetachWAL() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store.sink = nil
}

// CheckpointProvider exposes the store's rotation snapshot provider so hosts
// that journal extra state (the server's session journals) can wrap it
// before installing their own via SetCheckpointFunc. The provider is invoked
// from inside Append — wrappers must not take the engine lock.
func (e *Engine) CheckpointProvider() func() *wal.CheckpointRecord {
	return e.store.walCheckpoint
}

// ReplayWAL rebuilds the store's state from a recovery: the checkpoint (if
// any) seeds the oldest committed version, then every record replays
// through the store's own boundary machinery. The store must be fresh and
// must not have a wal sink attached (the records being replayed are already
// on disk).
func (s *Store) ReplayWAL(rec *wal.Recovery) error {
	if s.sink != nil {
		return fmt.Errorf("wal replay: detach the sink first (replayed records are already logged)")
	}
	if len(s.entries) > 0 || len(s.rels) > 0 {
		return fmt.Errorf("wal replay: store is not fresh")
	}
	if cp := rec.Checkpoint; cp != nil {
		for _, r := range cp.Rels {
			s.Put(r.Snapshot())
		}
		if cp.Commits > 0 {
			// Committing the seeded state below makes it version cp.Commits-1,
			// so version numbering continues exactly where the crashed process
			// left off; older versions are beyond the retained horizon and
			// @vnow clamps to the checkpoint.
			s.droppedCommits = cp.Commits - 1
		}
		s.Commit()
	}
	for i, r := range rec.Records {
		if err := s.applyWALRecord(r); err != nil {
			return fmt.Errorf("wal replay: record %d: %w", i, err)
		}
	}
	return nil
}

func (s *Store) applyWALRecord(r wal.Record) error {
	switch rr := r.(type) {
	case *wal.ChangeRecord:
		return s.applyWALChange(rr)
	case *wal.ControlRecord:
		if rr.Op == wal.CtlRollback {
			return s.Rollback()
		}
		return s.RestoreVersion(rr.Version)
	default:
		// Mid-stream checkpoints restate state already derived; session
		// records have no store effect.
		return nil
	}
}

// applyWALChange re-imposes one sealed window onto the live state — created
// relations installed in creation order, wholesale resets re-put, deltas
// re-applied and re-recorded — then drives the matching boundary call so the
// store seals it exactly as the original process did.
func (s *Store) applyWALChange(rec *wal.ChangeRecord) error {
	resets := make(map[string]*relation.Relation, len(rec.Resets))
	for _, r := range rec.Resets {
		resets[keyOf(r.Name)] = r
	}
	createdSet := make(map[string]bool, len(rec.Created))
	for _, name := range rec.Created {
		k := keyOf(name)
		createdSet[k] = true
		r, ok := resets[k]
		if !ok {
			return fmt.Errorf("created relation %q has no captured contents", name)
		}
		s.Put(r.Snapshot())
	}
	for _, r := range rec.Resets {
		if createdSet[keyOf(r.Name)] {
			continue
		}
		s.Put(r.Snapshot()) // existing name: Put records the unknown change
	}
	for _, nd := range rec.Deltas {
		rel, err := s.Get(nd.Name)
		if err != nil {
			return err
		}
		if err := rel.ApplyDelta(nd.Delta); err != nil {
			return fmt.Errorf("relation %s: %w", nd.Name, err)
		}
		s.recordChange(nd.Name, nd.Delta)
	}
	switch rec.Seal {
	case wal.SealCommit:
		s.Commit()
	case wal.SealBegin:
		s.BeginTxn()
	case wal.SealEvent:
		s.MarkEvent()
	case wal.SealBarrier:
		// The preceding CtlRestore record set pendResetAll, so this seals
		// the same restore-barrier boundary the original process did.
		s.SealRestoreBarrier()
	default:
		return fmt.Errorf("unknown seal op %d", rec.Seal)
	}
	return nil
}

// RecoverEngine rebuilds an engine from a recovered WAL plus the parsed
// program that produced it: the store replays the log; an interaction left
// in flight by the crash is rolled back (crashing aborts the interaction —
// clients re-drive it by session replay); the statements then reinstall
// definitions in recovery mode — CREATE TABLE and EVENT tables that already
// exist are adopted, INSERT/DELETE are skipped (their effects are in the
// log), views whose contents were recovered keep them and views the program
// added since the log was written materialize fresh. Ordered views re-sort
// (replay restores bags, not row order) and the frame goes stale. No final
// commit: the recovered history already ends at one. server.NewDurable is
// its one caller.
func RecoverEngine(cfg Config, stmts []parser.Statement, rec *wal.Recovery) (*Engine, error) {
	if rec.Checkpoint == nil && len(rec.Records) == 0 {
		// Recovery mode would skip the program's INSERTs (their effects are
		// assumed to be in the log), so "recovering" an empty log silently
		// yields empty tables. Refuse: an empty log means nothing durable
		// exists yet, and the host must boot fresh with the sink attached
		// before LoadProgram so the load itself becomes record one.
		return nil, fmt.Errorf("recover: empty log; boot fresh (AttachWAL before LoadProgram) instead")
	}
	e := New(cfg)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.store.ReplayWAL(rec); err != nil {
		return nil, err
	}
	if e.store.InTxn() && e.store.Versions() > 0 {
		if err := e.store.Rollback(); err != nil {
			return nil, fmt.Errorf("recover: abort in-flight interaction: %w", err)
		}
	}
	e.recovering = true
	err := e.execStmts(stmts)
	e.recovering = false
	if err != nil {
		return nil, fmt.Errorf("recover: reload program: %w", err)
	}
	if err := e.restoreOrderedViews(); err != nil {
		return nil, err
	}
	if err := e.frameStale(); err != nil {
		return nil, err
	}
	return e, nil
}
