// Package server hosts one DeVIL program for many concurrent visualization
// clients. The paper frames the DVMS as a system serving interactive
// clients; a single-tenant engine makes every client pay the full cost of
// building join and aggregate state over the same base data. The server
// splits that cost:
//
//   - One shared base engine owns the base relations, their delta log, and
//     every selection-independent view (charts identical for all clients),
//     computed and versioned exactly once.
//   - N lightweight Sessions each own only their private interaction state:
//     compound event tables, selection-dependent views, framebuffer, and
//     stats. Their catalogs chain to the shared store for everything else,
//     and their delta pipelines attach to an exec.ShareGroup so data-sized
//     join build sides (e.g. Sales indexed by month) are instantiated once
//     and probed by every session.
//
// Concurrency model: sessions are readers (server read-lock; each session's
// engine serializes itself), base-data ingestion is a single writer (server
// write-lock) that applies each change once to the shared engine and the
// shared states, then fans the sealed deltas out to every attached session.
package server

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// Engine configures the shared base engine and every session engine
	// (framebuffer size, history depth, maintenance toggles).
	Engine core.Config
	// MaxSessions caps concurrent sessions (0 = unlimited). Attach beyond
	// the cap first tries to evict a session idle for at least IdleTimeout,
	// then fails.
	MaxSessions int
	// IdleTimeout is the idle age after which a session may be evicted by
	// EvictIdle or by an over-cap Attach (0 = sessions are never evicted
	// implicitly).
	IdleTimeout time.Duration
}

// journalWarnEntries is the per-token journal length past which the server
// logs a one-time warning: journals grow without bound until the client
// detaches, and resume replay cost grows with them.
const journalWarnEntries = 10000

// Stats aggregates the server's work counters.
type Stats struct {
	Sessions  int   // currently attached
	Attached  int64 // sessions ever attached
	Resumed   int64 // sessions rebuilt from their journal
	Detached  int64 // explicit detaches
	Evicted   int64 // idle evictions
	Journals  int   // resume journals retained (attached + resumable)
	BaseWrite int64 // single-writer ingestion batches

	// Resume-journal growth: total retained records and their approximate
	// encoded bytes across every token. These grow monotonically per session
	// until the client detaches (SessForget drops its journal).
	JournalEntries int64
	JournalBytes   int64

	// Share describes the shared-state registry: Builds counts data-sized
	// states instantiated (once per distinct fingerprint, not per session),
	// Reuses the attachments that found one already built.
	Share       exec.ShareStats
	SharedSides int   // distinct shared states currently registered
	SharedRows  int64 // rows held by shared states

	// Memory split: bytes held once for everyone vs. per session.
	SharedBytes       int64 // base store + shared build-side states
	PrivateBytesTotal int64 // sum of session stores
}

// Server hosts one shared engine behind per-client sessions.
type Server struct {
	// mu is the reader/writer gate: session operations hold it for reading
	// (they only read shared state), base-data ingestion and session
	// lifecycle hold it for writing.
	mu sync.RWMutex
	// histMu serializes historical reads of the shared store (version
	// reconstruction mutates its LRU cache, which the read-lock alone does
	// not make safe).
	histMu sync.Mutex

	cfg   Config
	split *core.ProgramSplit
	base  *core.Engine
	group *exec.ShareGroup

	sessions map[int]*Session
	nextID   int

	// byToken indexes live sessions by their stable resume token; journal
	// holds each token's resume journal (event-sourced private state), which
	// outlives the session object across eviction and — with log set — across
	// process restarts. journal/byToken are mutated under jmu plus at least
	// the read lock; readers hold either the write lock or jmu (see
	// journalAppend and walCheckpoint for why this is deadlock-free).
	jmu     sync.Mutex
	journal map[string][]wal.SessionRecord
	byToken map[string]*Session
	log     *wal.Log // nil: non-durable server
	baseCP  func() *wal.CheckpointRecord
	sealed  atomic.Bool // Shutdown ran: suppress journal appends

	// Journal growth accounting (guarded by jmu like the journal itself):
	// totals across tokens plus per-token bytes so SessForget can subtract.
	jEntries int64
	jBytes   int64
	jBytesBy map[string]int64

	// reg holds the server's own series (dvms_attach_seconds and the
	// dvms_tile_build_* family); engines keep theirs.
	reg          *obs.Registry
	buildWorkers atomic.Int64 // goroutines of the latest tile build

	// lg receives structured lifecycle and health logs (attach, detach,
	// evict, resume, journal growth). Defaults to a discard logger so
	// embedded/test servers stay silent; hosts install theirs via SetLogger.
	lg *slog.Logger

	// epoch counts sealed base-write batches. Sessions record the epoch at
	// each of their commits; a session abort/undo that restores private
	// views computed against an older epoch must resync them against the
	// live shared data (shared relations are not part of session
	// transactions and are never rolled back per client).
	epoch int64

	attached, resumed, detached, evicted, baseWrites int64
}

// New builds a server for the program: the program is parsed and split
// once, the shared partition loads into the base engine, and the private
// partition is retained for session attach to replay.
func New(cfg Config, program string) (*Server, error) {
	split, err := core.SplitProgram(program)
	if err != nil {
		return nil, err
	}
	base := core.New(cfg.Engine)
	if err := base.ExecParsed(split.Shared); err != nil {
		return nil, fmt.Errorf("server: load shared program: %w", err)
	}
	base.Commit()
	return newServer(cfg, split, base), nil
}

func newServer(cfg Config, split *core.ProgramSplit, base *core.Engine) *Server {
	s := &Server{
		cfg:      cfg,
		split:    split,
		base:     base,
		sessions: make(map[int]*Session),
		journal:  make(map[string][]wal.SessionRecord),
		byToken:  make(map[string]*Session),
		jBytesBy: make(map[string]int64),
		lg:       discardLogger(),
		reg:      obs.NewRegistry(),
	}
	s.group = exec.NewShareGroup(func(name string) bool { return split.SharedNames[name] })
	s.group.OnTileBuild = s.observeTileBuild
	s.reg.SetGaugeFunc("dvms_tile_build_workers", func() float64 { return float64(s.buildWorkers.Load()) })
	return s
}

// Base exposes the shared engine (single-threaded setup and tests only).
func (s *Server) Base() *core.Engine { return s.base }

// discardLogger is the default logger: structured logging is opt-in via
// SetLogger, so embedded and test servers stay silent.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// sharedCatalog resolves shared relations for session engines. Live reads
// are lock-free map lookups (the server's write lock excludes the only
// mutator); historical reads serialize on histMu because reconstruction
// touches the store's LRU cache.
type sharedCatalog struct{ s *Server }

// Resolve implements plan.Catalog over the shared store.
func (c sharedCatalog) Resolve(name string, v relation.VersionRef) (*relation.Relation, error) {
	if v.IsCurrent() || (v.Kind == relation.VersionVNow && v.Offset == 0) {
		return c.s.base.Store().Get(name)
	}
	c.s.histMu.Lock()
	defer c.s.histMu.Unlock()
	return c.s.base.Store().Resolve(name, v)
}

// Attach creates a session: a private engine chained to the shared catalog
// and state registry, loaded with the program's private partition. The
// expensive part — priming selection-dependent pipelines over the shared
// data — runs under the read lock, concurrently with other sessions.
func (s *Server) Attach() (*Session, error) {
	start := time.Now()
	if err := s.ensureCapacity(); err != nil {
		return nil, err
	}
	build0, rows0 := s.tileBuilt()
	s.mu.RLock()
	sess, err := s.buildSession()
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	// The tile builds that finished while this session was built: the ones it
	// ran, and the ones it waited for another first attach to finish.
	build, rows := s.tileBuilt()
	build, rows = build-build0, rows-rows0
	var workers int64
	if rows > 0 {
		workers = s.buildWorkers.Load()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		sess.eng.Close()
		return nil, fmt.Errorf("server: session capacity %d reached", s.cfg.MaxSessions)
	}
	s.nextID++
	sess.id = s.nextID
	sess.token = s.newToken()
	s.sessions[sess.id] = sess
	s.byToken[sess.token] = sess
	s.attached++
	s.journalAppend(wal.SessionRecord{Token: sess.token, Op: wal.SessAttach})
	took := time.Since(start)
	s.reg.Hist("dvms_attach_seconds").Observe(took)
	s.lg.Info("session attached", "session", sess.id, "token", sess.token, "sessions", len(s.sessions),
		"attach_ms", took.Seconds()*1e3, "tile_build_ms", build.Seconds()*1e3, "fact_rows", rows, "workers", workers)
	return sess, nil
}

// ensureCapacity makes room under MaxSessions by evicting one sufficiently
// idle session, if the config allows it.
func (s *Server) ensureCapacity() error {
	if s.cfg.MaxSessions <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) < s.cfg.MaxSessions {
		return nil
	}
	if s.cfg.IdleTimeout > 0 && s.evictIdleLocked(s.cfg.IdleTimeout, 1) > 0 {
		return nil
	}
	return fmt.Errorf("server: session capacity %d reached", s.cfg.MaxSessions)
}

func (s *Server) buildSession() (*Session, error) {
	eng := core.New(s.cfg.Engine)
	eng.AttachBase(sharedCatalog{s}, s.base.Store().Has, s.group)
	sess := &Session{srv: s, eng: eng}
	sess.touch()
	if err := eng.ExecParsed(s.split.Private); err != nil {
		eng.Close()
		return nil, fmt.Errorf("server: load session program: %w", err)
	}
	eng.Commit()
	sess.commitEpochs = []int64{s.epoch} // callers hold at least the read lock
	return sess, nil
}

// detach removes a session (explicit Detach or eviction), releasing its
// shared-state references.
func (s *Server) detach(sess *Session, evicted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[sess.id]; !ok {
		return
	}
	delete(s.sessions, sess.id)
	delete(s.byToken, sess.token)
	if evicted {
		s.evicted++
		s.lg.Info("session evicted", "session", sess.id, "token", sess.token, "sessions", len(s.sessions))
	} else {
		// Explicit detach is the client saying goodbye: drop the resume
		// journal too (eviction keeps it — the client may come back).
		s.detached++
		s.journalAppend(wal.SessionRecord{Token: sess.token, Op: wal.SessForget})
		s.lg.Info("session detached", "session", sess.id, "token", sess.token, "sessions", len(s.sessions))
	}
	sess.closed.Store(true)
	sess.eng.Close()
	s.group.Sweep()
}

// EvictIdle detaches every session idle for at least olderThan, returning
// how many were evicted.
func (s *Server) EvictIdle(olderThan time.Duration) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictIdleLocked(olderThan, -1)
}

func (s *Server) evictIdleLocked(olderThan time.Duration, limit int) int {
	now := time.Now()
	n := 0
	for id, sess := range s.sessions {
		if limit >= 0 && n >= limit {
			break
		}
		if now.Sub(sess.lastUsed()) < olderThan {
			continue
		}
		delete(s.sessions, id)
		delete(s.byToken, sess.token)
		sess.closed.Store(true)
		sess.eng.Close()
		s.evicted++
		s.lg.Info("session evicted", "session", id, "token", sess.token,
			"idle", now.Sub(sess.lastUsed()).Round(time.Second).String(), "sessions", len(s.sessions))
		n++
	}
	if n > 0 {
		s.group.Sweep()
	}
	return n
}

// InsertRows is the single-writer ingestion path: the rows apply to the
// shared engine (updating shared views and sealing one delta batch), the
// shared build-side states advance exactly once, and the sealed deltas fan
// out to every attached session's private dataflow.
func (s *Server) InsertRows(table string, rows []relation.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	changes, err := s.base.InsertRowsDelta(table, rows)
	if err != nil {
		return err
	}
	// Seal the batch as a shared version boundary: the pending delta window
	// stays O(batch) instead of accumulating forever, and versioned reads
	// of shared relations (@vnow-i) see ingestion history.
	s.base.Commit()
	s.baseWrites++
	return s.fanOut(changes)
}

// ExecShared applies DeVIL statements to the shared engine (DDL, bulk
// loads). Because the engine does not expose the refresh deltas for
// arbitrary statements, attached sessions receive an unknown-change map for
// every shared relation, forcing their dependent views to fully recompute —
// correct, just not incremental. Prefer InsertRows for the hot path.
func (s *Server) ExecShared(src string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.base.Exec(src); err != nil {
		return err
	}
	s.base.Commit()
	s.baseWrites++
	return s.fanOut(s.unknownSharedChanges())
}

// fanOut advances the shared states once with the sealed batch, then
// replays it into every session (each gets its own copy of the map — a
// session's refresh extends it with its private views' output deltas).
// Caller holds the write lock.
func (s *Server) fanOut(changes map[string]*relation.Delta) error {
	in := make(map[string]relation.Delta, len(changes))
	unknown := map[string]bool{}
	for k, d := range changes {
		if d == nil {
			unknown[k] = true
		} else {
			in[k] = *d
		}
	}
	s.epoch++
	ex := &exec.Executor{Cat: s.base.Store(), Funcs: s.base.Funcs()}
	err := s.group.Advance(ex, in, unknown)
	if err != nil {
		// Some shared states may have advanced before the failure and the
		// base engine already holds the rows; sessions must not consume the
		// partial batch's cached deltas. Clear them and fan out an
		// unknown-change resync (full recompute) to every session instead.
		s.group.EndAdvance()
		for _, sess := range s.sessions {
			if rerr := sess.eng.ApplyExternalDeltas(s.unknownSharedChanges()); rerr != nil {
				err = fmt.Errorf("%v; session %d resync: %v", err, sess.id, rerr)
			}
		}
		return fmt.Errorf("server: advance shared states: %w", err)
	}
	defer s.group.EndAdvance()
	var firstErr error
	for _, sess := range s.sessions {
		copied := make(map[string]*relation.Delta, len(changes))
		for k, d := range changes {
			copied[k] = d
		}
		err := sess.eng.ApplyExternalDeltas(copied)
		if err == nil {
			continue
		}
		// A session that misses a batch would silently drift from the
		// already-advanced shared states; heal it with a full resync
		// (unknown change on every shared relation forces recompute and
		// re-priming) and keep fanning out to the others either way.
		if rerr := sess.eng.ApplyExternalDeltas(s.unknownSharedChanges()); rerr != nil {
			err = fmt.Errorf("%v; resync also failed: %v", err, rerr)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("server: fan out to session %d: %w", sess.id, err)
		}
	}
	return firstErr
}

// unknownSharedChanges builds a change map marking every shared relation as
// changed in an unknown way — the full-recompute fan-out used when exact
// deltas are unavailable.
func (s *Server) unknownSharedChanges() map[string]*relation.Delta {
	changes := make(map[string]*relation.Delta, len(s.split.SharedNames))
	for name := range s.split.SharedNames {
		changes[name] = nil
	}
	return changes
}

// Stats snapshots the server counters, the share registry, and the
// shared-vs-private memory split.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Sessions:  len(s.sessions),
		Attached:  s.attached,
		Resumed:   s.resumed,
		Detached:  s.detached,
		Evicted:   s.evicted,
		BaseWrite: s.baseWrites,

		Share:       s.group.Stats(),
		SharedSides: s.group.Sides(),
		SharedRows:  s.group.SharedRows(),
	}
	s.jmu.Lock()
	st.Journals = len(s.journal)
	st.JournalEntries = s.jEntries
	st.JournalBytes = s.jBytes
	s.jmu.Unlock()
	st.SharedBytes = s.base.ApproxBytes() + s.group.ApproxBytes()
	for _, sess := range s.sessions {
		st.PrivateBytesTotal += sess.eng.ApproxBytes()
	}
	return st
}

// Sessions reports the number of currently attached sessions.
func (s *Server) Sessions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}
