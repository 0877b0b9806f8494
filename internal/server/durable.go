package server

// Durable serving: the shared engine's delta log and every session's resume
// journal stream into one wal.Log. NewDurable is the only way to open a
// durable engine: on restart the shared engine recovers by store replay
// (core.RecoverEngine) and the session journals are rebuilt from the log, so
// a client that reconnects with its token resumes the private state it left
// — across connection drops, idle eviction, and process crashes alike. Non-durable servers keep the same in-memory
// journals (log == nil), which is what makes evict-then-resume work without
// a data directory.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/wal"
)

// NewDurable builds a server whose shared engine and session journals
// persist in a delta log under opts. An empty log boots fresh with the sink
// attached before the shared program loads (the load is record one); a
// non-empty log recovers the previous process's shared state and session
// journals. The returned report describes any repair the open performed
// (torn tails, dropped segments); callers surface it and keep serving.
func NewDurable(cfg Config, program string, opts wal.Options) (*Server, wal.Report, error) {
	split, err := core.SplitProgram(program)
	if err != nil {
		return nil, wal.Report{}, err
	}
	l, rec, err := wal.Open(opts)
	if err != nil {
		return nil, wal.Report{}, err
	}
	var base *core.Engine
	if rec.Checkpoint == nil && len(rec.Records) == 0 {
		base = core.New(cfg.Engine)
		base.AttachWAL(l)
		if err := base.ExecParsed(split.Shared); err != nil {
			l.Close()
			return nil, rec.Report, fmt.Errorf("server: load shared program: %w", err)
		}
		base.Commit()
	} else {
		base, err = core.RecoverEngine(cfg.Engine, split.Shared, rec)
		if err != nil {
			l.Close()
			return nil, rec.Report, fmt.Errorf("server: recover shared engine: %w", err)
		}
		base.AttachWAL(l)
	}
	s := newServer(cfg, split, base)
	s.log = l
	s.baseCP = base.CheckpointProvider()
	// Rebuild the session journals: the checkpoint (if replay started at
	// one) restates every journal live at rotation; later records extend
	// them. Constructor is single-threaded, so no jmu needed yet.
	if cp := rec.Checkpoint; cp != nil {
		for i := range cp.Sessions {
			s.applyJournalLocked(cp.Sessions[i], len(wal.EncodeRecord(&cp.Sessions[i])))
		}
	}
	for _, r := range rec.Records {
		if sr, ok := r.(*wal.SessionRecord); ok {
			s.applyJournalLocked(*sr, len(wal.EncodeRecord(sr)))
		}
	}
	// Replace the engine's checkpoint provider with the wrapper that also
	// restates session journals at rotation.
	l.SetCheckpointFunc(s.walCheckpoint)
	return s, rec.Report, nil
}

// Log exposes the server's delta log (nil for a non-durable server) so hosts
// can surface durability stats and sticky append errors.
func (s *Server) Log() *wal.Log { return s.log }

// journalAppend records one session op in the in-memory journal and, on a
// durable server, in the log. Holding jmu across both makes the pair atomic
// with respect to rotation checkpoints: a checkpoint taken inside the
// Append sees the map state that matches the log position, so a recovery
// starting at it neither duplicates nor loses this record. Callers hold at
// least the server read lock.
func (s *Server) journalAppend(rec wal.SessionRecord) {
	if s.sealed.Load() {
		return
	}
	// One encoding both sizes the journal entry and is the log's frame.
	f := wal.NewFrame(&rec)
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.applyJournalLocked(rec, f.PayloadLen())
	if s.log != nil {
		// Sticky failures inside the log degrade the server to in-memory
		// journals; the host reads log.Err() to learn durability was lost.
		_ = s.log.AppendFrame(f)
	}
}

// applyJournalLocked folds one record into the journal map, maintaining the
// growth accounting (total entries/bytes plus per-token bytes so a forget
// can subtract its share); size is the record's encoded length. Caller
// holds jmu or has exclusive access (constructor).
func (s *Server) applyJournalLocked(rec wal.SessionRecord, size int) {
	if rec.Op == wal.SessForget {
		s.jEntries -= int64(len(s.journal[rec.Token]))
		s.jBytes -= s.jBytesBy[rec.Token]
		delete(s.journal, rec.Token)
		delete(s.jBytesBy, rec.Token)
		return
	}
	s.journal[rec.Token] = append(s.journal[rec.Token], rec)
	sz := int64(size)
	s.jEntries++
	s.jBytes += sz
	s.jBytesBy[rec.Token] += sz
	if len(s.journal[rec.Token]) == journalWarnEntries {
		// Once per journal: it only grows until a forget deletes it.
		s.lg.Warn("session journal past growth threshold; resume replay cost grows with it",
			"token", rec.Token, "entries", len(s.journal[rec.Token]), "bytes", s.jBytesBy[rec.Token])
	}
}

// walCheckpoint wraps the base store's rotation snapshot with the session
// journals, so a recovery that starts at the checkpoint still knows every
// resumable session. Invoked from inside Append; it must NOT take jmu — a
// session's journalAppend holds jmu across its Append, so rotation fired
// from that path would self-deadlock. Reading the map without jmu is safe:
// if the rotating append came from the base sink, the caller holds the
// server write lock and no session can be mutating the journal (mutators
// hold the read lock); if it came from a session's journalAppend, that
// session already holds jmu, excluding every other mutator.
func (s *Server) walCheckpoint() *wal.CheckpointRecord {
	cp := s.baseCP()
	if cp == nil {
		return nil
	}
	tokens := make([]string, 0, len(s.journal))
	for t := range s.journal {
		tokens = append(tokens, t)
	}
	sort.Strings(tokens)
	for _, t := range tokens {
		cp.Sessions = append(cp.Sessions, s.journal[t]...)
	}
	return cp
}

// Resume returns the live session for token, or rebuilds one from its
// journal: a fresh private engine replays exactly the ops the client
// successfully applied (without re-journaling them), so the client continues
// from the state it last saw — selection, history, framebuffer. Unknown
// tokens (never attached, or explicitly detached) fail.
func (s *Server) Resume(token string) (*Session, error) {
	s.mu.Lock()
	if sess, ok := s.byToken[token]; ok {
		sess.touch()
		s.mu.Unlock()
		return sess, nil
	}
	s.jmu.Lock()
	recs := append([]wal.SessionRecord(nil), s.journal[token]...)
	s.jmu.Unlock()
	s.mu.Unlock()
	if len(recs) == 0 {
		return nil, fmt.Errorf("server: unknown session token %q", token)
	}
	if err := s.ensureCapacity(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	sess, err := s.buildSession()
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.byToken[token]; ok { // lost a race with another Resume
		sess.eng.Close()
		existing.touch()
		return existing, nil
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		sess.eng.Close()
		return nil, fmt.Errorf("server: session capacity %d reached", s.cfg.MaxSessions)
	}
	sess.token = token
	for _, r := range recs {
		switch r.Op {
		case wal.SessEvent:
			te, err := sess.eng.FeedEvent(r.Event)
			if err != nil {
				sess.eng.Close()
				return nil, fmt.Errorf("server: resume %s: replay event: %w", token, err)
			}
			if err := sess.noteTxn(te); err != nil {
				sess.eng.Close()
				return nil, fmt.Errorf("server: resume %s: %w", token, err)
			}
		case wal.SessUndo:
			if err := sess.undoLocked(); err != nil {
				sess.eng.Close()
				return nil, fmt.Errorf("server: resume %s: replay undo: %w", token, err)
			}
		}
	}
	s.nextID++
	sess.id = s.nextID
	s.sessions[sess.id] = sess
	s.byToken[token] = sess
	s.resumed++
	s.lg.Info("session resumed", "session", sess.id, "token", token,
		"replayed", len(recs), "sessions", len(s.sessions))
	return sess, nil
}

// Shutdown seals the log for a graceful exit: logging stops, the current
// segment syncs and closes, and a later NewDurable over the same directory
// recovers with a clean report. Sessions stay attached (their journals are
// already durable); further session ops simply stop journaling. Idempotent;
// a no-op for non-durable servers.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil || s.sealed.Swap(true) {
		return nil
	}
	s.base.DetachWAL()
	return s.log.Close()
}

// newToken mints a resume token unused by any live session or retained
// journal. Caller holds the server write lock.
func (s *Server) newToken() string {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	for i := 0; ; i++ {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			b[0], b[1] = byte(i), byte(i>>8) // degenerate, still uniqueness-checked
		}
		t := hex.EncodeToString(b[:])
		if _, taken := s.journal[t]; taken {
			continue
		}
		if _, live := s.byToken[t]; !live {
			return t
		}
	}
}
