package server

// Server-wide observability: each engine (shared base + every session)
// records into its own obs registry with zero cross-engine coordination on
// the hot path; this file is the read side, merging those registries plus
// the server's own lifecycle counters and capacity gauges into one snapshot
// for the stats op and the /metrics exposition.

import (
	"log/slog"
	"time"

	"repro/internal/obs"
)

// SetLogger installs the structured logger receiving session lifecycle and
// health events (attach/detach/evict/resume, journal growth warnings). A nil
// logger restores the default discard logger.
func (s *Server) SetLogger(lg *slog.Logger) {
	if lg == nil {
		lg = discardLogger()
	}
	s.mu.Lock()
	s.lg = lg
	s.mu.Unlock()
}

// ObsSnapshot merges the base engine's metrics registry, every attached
// session's registry, and the server's own counters and gauges into one
// server-wide snapshot: per-stage latency histograms aggregate bucket-wise
// across sessions, counters and gauges sum. Empty (histogram-free) when the
// engines run with DisableObs; the server-level series are always present.
//
// Must not be called with the server write lock or any engine lock held:
// engine registry gauges read engine stats under the engine mutex.
func (s *Server) ObsSnapshot() obs.Snapshot {
	s.mu.RLock()
	snap := s.base.Obs().Snapshot()
	var priv int64
	for _, sess := range s.sessions {
		snap = snap.Merge(sess.eng.Obs().Snapshot())
		priv += sess.eng.ApproxBytes()
	}
	srv := obs.Snapshot{
		Counters: map[string]int64{
			"dvms_sessions_attached_total": s.attached,
			"dvms_sessions_resumed_total":  s.resumed,
			"dvms_sessions_detached_total": s.detached,
			"dvms_sessions_evicted_total":  s.evicted,
			"dvms_base_writes_total":       s.baseWrites,
		},
		Gauges: map[string]float64{
			"dvms_sessions":            float64(len(s.sessions)),
			"dvms_shared_bytes":        float64(s.base.ApproxBytes() + s.group.ApproxBytes()),
			"dvms_private_bytes_total": float64(priv),
			"dvms_shared_sides":        float64(s.group.Sides()),
		},
	}
	s.mu.RUnlock()

	s.jmu.Lock()
	srv.Gauges["dvms_session_journals"] = float64(len(s.journal))
	srv.Gauges["dvms_session_journal_entries"] = float64(s.jEntries)
	srv.Gauges["dvms_session_journal_bytes"] = float64(s.jBytes)
	var maxLen int
	for _, recs := range s.journal {
		if len(recs) > maxLen {
			maxLen = len(recs)
		}
	}
	srv.Gauges["dvms_session_journal_max_entries"] = float64(maxLen)
	s.jmu.Unlock()

	if s.log != nil {
		ds := s.log.Stats()
		srv.Counters["dvms_wal_segments_total"] = ds.SegmentsWritten
		srv.Counters["dvms_wal_bytes_appended_total"] = ds.BytesAppended
		srv.Counters["dvms_wal_fsyncs_total"] = ds.Fsyncs
	}
	return snap.Merge(srv).Merge(s.reg.Snapshot())
}

// observeTileBuild is the share group's build observer: every construction
// of a shared tile store — by a first attach or by the writer's rebuild — is
// recorded where it happens, as one dvms_tile_build_seconds observation, its
// fact rows on dvms_tile_build_rows_total, and its goroutine count as the
// dvms_tile_build_workers gauge.
func (s *Server) observeTileBuild(rows int64, workers int, took time.Duration) {
	s.reg.Hist("dvms_tile_build_seconds").Observe(took)
	s.reg.Counter("dvms_tile_build_rows_total").Add(rows)
	s.buildWorkers.Store(int64(workers))
}

// tileBuilt reads the running totals of the tile builds: time spent and fact
// rows folded. An attach logs their change across its session build.
func (s *Server) tileBuilt() (time.Duration, int64) {
	return time.Duration(s.reg.Hist("dvms_tile_build_seconds").Snapshot().Sum), s.reg.Counter("dvms_tile_build_rows_total").Value()
}

// Obs snapshots this session's own metrics registry (empty under
// DisableObs).
func (ss *Session) Obs() (obs.Snapshot, error) {
	release, err := ss.guard()
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer release()
	return ss.eng.Obs().Snapshot(), nil
}

// Traces returns this session's retained event traces, oldest first: the
// recent ring, or only the over-budget slow log when slowOnly is set. Nil
// under DisableObs.
func (ss *Session) Traces(slowOnly bool) ([]obs.Trace, error) {
	release, err := ss.guard()
	if err != nil {
		return nil, err
	}
	defer release()
	if slowOnly {
		return ss.eng.Obs().SlowEvents(), nil
	}
	return ss.eng.Obs().Traces(), nil
}
