package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/render"
)

// Config parameterizes an Engine.
type Config struct {
	// Width and Height size the framebuffer the render sinks draw into.
	// Defaults: 400×300.
	Width, Height int
	// MaxHistory bounds the committed version history (@vnow depth).
	// Default 64.
	MaxHistory int
	// RecomputeAll disables dirty-set view maintenance: every view
	// recomputes on every change. This is the full-recompute oracle the
	// parity walls hold the delta path to; leave false for normal operation.
	RecomputeAll bool
	// CheckpointEvery sets the commit interval between full version-log
	// checkpoints (bounding @vnow reconstruction walks). Default 16.
	CheckpointEvery int
	// DisableObs turns off the latency-observability layer (per-stage
	// histograms, event traces, the slow-event log): the ablation arm
	// bench/ measures obs.off_speedup against. Leave false for normal
	// operation — the layer costs a few time.Now calls and one small
	// allocation per event.
	DisableObs bool
	// LatencyBudget is the per-event latency budget: events whose end-to-end
	// handling exceeds it retain their full stage breakdown in the slow-event
	// log. Default obs.DefaultBudget (100 ms, the perceptual brushing budget).
	LatencyBudget time.Duration
}

// TxnEvent describes how one fed input event advanced the interaction
// transaction machinery, mirroring events.Actions at the engine level.
type TxnEvent struct {
	Interaction string // compound event table name, "" if the event was filtered everywhere
	Began       bool
	RowsEmitted int
	Committed   bool
	Aborted     bool
	Version     int // committed version index when Committed
}

// Engine is the DVMS instance: it loads DeVIL programs, maintains views,
// recognizes interactions, manages versions and transactions, and renders
// marks to pixels.
type Engine struct {
	// mu serializes all public entry points, so an Engine is safe to drive
	// from multiple goroutines (the session server relies on this) and
	// Stats can be snapshotted without tearing. Single-tenant hosts pay one
	// uncontended lock per call.
	mu sync.Mutex

	cfg   Config
	store *Store
	funcs *expr.Registry

	views     map[string]*view // keyed lowercase
	viewOrder []string         // definition order
	topo      []string         // recompute order (topological)
	deps      map[string][]string
	// levels groups topo into dependency levels (levelPlan): refresh runs
	// the streamed views of one level at once (refreshLevel).
	levels [][]*view
	// siblings is refreshLevel's reusable job list, and helpersStarted
	// counts the goroutines it has started over the engine's life (read by
	// tests: none may start at GOMAXPROCS 1).
	siblings       []siblingJob
	helpersStarted int

	// Multi-client serving hooks (AttachBase): base resolves relations not
	// present in the private store (the server's shared database), baseHas
	// reports their existence, and shares is the registry that lets this
	// engine's delta pipelines reuse data-sized join build states across
	// sessions. All nil for a single-tenant engine.
	base    plan.Catalog
	baseHas func(name string) bool
	shares  *exec.ShareGroup

	recognizers []*events.Recognizer
	// activeTxn is the compound table name of the in-flight interaction.
	activeTxn string

	// recovering marks a WAL-recovery program load: relations already
	// rebuilt from the log are adopted instead of re-created, and data
	// statements (INSERT/DELETE) are skipped because their effects replayed.
	recovering bool

	// img is the framebuffer, allocated by its first read (frame.go);
	// stale marks it out of date with sinks, the render-sink views in
	// definition order.
	img      *render.Image
	stale    bool
	sinks    []*view
	warnings []string

	// obs is the latency-observability recorder (nil when cfg.DisableObs —
	// every obs call is nil-safe and free on that arm). curTrace is the
	// in-flight event's trace; the engine lock serializes feedEvent, so a
	// plain field is race-free.
	obs      *obs.Recorder
	curTrace *obs.Trace

	// stats for benchmarks and EXPERIMENTS.md. Direct field access is only
	// safe single-threaded; concurrent hosts use StatsSnapshot.
	Stats Stats
}

// TopKStats aliases the executor's order-statistic counters so hosts and
// benchmarks read them straight off Stats without importing exec.
type TopKStats = exec.TopKStats

// CubeStats aliases the executor's data-cube counters (index tiles for
// O(bins) brush moves) for the same reason.
type CubeStats = exec.CubeStats

// ExecStats aliases the executor's aggregate-stream counters.
type ExecStats = exec.ExecStats

// Stats counts engine work, exposed for benchmarks and the experiment
// harness. ViewRecomputes counts full (re)materializations; the delta
// counters cover the incremental path: ViewDeltaApplies is the number of
// view updates served by delta propagation, DeltaRowsIn/Out the change rows
// consumed/produced by those applications, FullFallbacks the dirty views
// that had to fully recompute inside a delta-driven refresh (non-safe plan,
// unknown input delta, or delta error), EmptyDeltaSkips the dirty views
// short-circuited because every input delta was empty, and RenderSkips the
// refreshes that left the framebuffer untouched because no sink changed.
type Stats struct {
	ViewRecomputes int
	RenderPasses   int
	EventsFed      int
	EventsFiltered int
	Commits        int
	Aborts         int

	ViewDeltaApplies int
	DeltaRowsIn      int
	DeltaRowsOut     int
	FullFallbacks    int
	EmptyDeltaSkips  int
	RenderSkips      int

	// TopK counts the order-statistic subsystem's work (incremental
	// ORDER BY / LIMIT): TreeRows is the high-water mark of rows held by any
	// single view's order-statistic trees, PrefixEmits the delta rows
	// emitted for maintained top-k prefixes, Evictions the prefix exits of
	// rows displaced (not deleted) by better-ranked arrivals.
	TopK TopKStats

	// Cube counts the data-cube subsystem's work (per-chart index tiles):
	// Builds is tile (re)constructions — brush-begin activations plus full
	// rebuilds after unknown changes — Hits the selection deltas answered
	// from tiles instead of re-streaming joined rows, BinsAnswered the
	// output bins those answers covered, Fallbacks the cube-candidate view
	// definitions (aggregate over a join) that compiled without a cube path
	// (non-decomposable aggregate, residual predicate, subquery
	// parameterization, …). TileBytes is a gauge filled by StatsSnapshot.
	Cube CubeStats

	// Exec counts the delta work aggregates consumed straight from their
	// child's stream, per event (priming is not counted): BatchRows is the
	// change rows folded into group accumulators, FusedApplies the non-empty
	// delta applications that did so. RowFallbacks stays 0 — the
	// row-at-a-time aggregate arm it counted is gone; the name survives for
	// the metrics surface and the benchmark's path guard.
	Exec ExecStats

	// Versioning counts the storage manager's delta-log work (boundaries
	// sealed, bytes checkpointed, versions reconstructed). The store writes
	// these counters directly; resetting Stats resets them too.
	Versioning VersioningStats
}

// New creates an engine with the given config.
func New(cfg Config) *Engine {
	if cfg.Width <= 0 {
		cfg.Width = 400
	}
	if cfg.Height <= 0 {
		cfg.Height = 300
	}
	e := &Engine{
		cfg:   cfg,
		store: NewStore(cfg.MaxHistory),
		funcs: expr.NewRegistry(),
		views: make(map[string]*view),
		deps:  map[string][]string{},
	}
	if cfg.CheckpointEvery > 0 {
		e.store.checkpointEvery = cfg.CheckpointEvery
	}
	// The store counts its versioning work straight into the engine stats.
	e.store.stats = &e.Stats.Versioning
	if !cfg.DisableObs {
		e.obs = obs.NewRecorder(cfg.LatencyBudget)
		e.registerStatGauges()
	}
	return e
}

// registerStatGauges migrates the engine's Stats counters onto the obs
// registry: every counter (and the tile/store byte gauges) is readable
// through the one metrics surface instead of living beside it. The gauge
// callbacks run at snapshot/exposition time only and take the engine lock
// themselves — never call Registry.Snapshot while holding e.mu.
func (e *Engine) registerStatGauges() {
	reg := e.obs.Registry()
	snap := func(read func(Stats) int64) func() float64 {
		return func() float64 { return float64(read(e.StatsSnapshot())) }
	}
	for name, read := range map[string]func(Stats) int64{
		"dvms_view_recomputes_total":    func(s Stats) int64 { return int64(s.ViewRecomputes) },
		"dvms_render_passes_total":      func(s Stats) int64 { return int64(s.RenderPasses) },
		"dvms_render_skips_total":       func(s Stats) int64 { return int64(s.RenderSkips) },
		"dvms_events_fed_total":         func(s Stats) int64 { return int64(s.EventsFed) },
		"dvms_events_filtered_total":    func(s Stats) int64 { return int64(s.EventsFiltered) },
		"dvms_commits_total":            func(s Stats) int64 { return int64(s.Commits) },
		"dvms_aborts_total":             func(s Stats) int64 { return int64(s.Aborts) },
		"dvms_delta_applies_total":      func(s Stats) int64 { return int64(s.ViewDeltaApplies) },
		"dvms_delta_rows_in_total":      func(s Stats) int64 { return int64(s.DeltaRowsIn) },
		"dvms_delta_rows_out_total":     func(s Stats) int64 { return int64(s.DeltaRowsOut) },
		"dvms_full_fallbacks_total":     func(s Stats) int64 { return int64(s.FullFallbacks) },
		"dvms_empty_delta_skips_total":  func(s Stats) int64 { return int64(s.EmptyDeltaSkips) },
		"dvms_cube_builds_total":        func(s Stats) int64 { return s.Cube.Builds },
		"dvms_cube_hits_total":          func(s Stats) int64 { return s.Cube.Hits },
		"dvms_cube_fallbacks_total":     func(s Stats) int64 { return s.Cube.Fallbacks },
		"dvms_tile_bytes":               func(s Stats) int64 { return s.Cube.TileBytes },
		"dvms_exec_batch_rows_total":    func(s Stats) int64 { return s.Exec.BatchRows },
		"dvms_exec_fused_applies_total": func(s Stats) int64 { return s.Exec.FusedApplies },
		"dvms_exec_row_fallbacks_total": func(s Stats) int64 { return s.Exec.RowFallbacks },
	} {
		reg.SetGaugeFunc(name, snap(read))
	}
	reg.SetGaugeFunc("dvms_store_bytes", func() float64 { return float64(e.ApproxBytes()) })
}

// Obs exposes the engine's latency recorder (nil when DisableObs). The
// recorder is internally synchronized; hosts snapshot and read traces from
// any goroutine.
func (e *Engine) Obs() *obs.Recorder { return e.obs }

// Funcs exposes the engine's UDF registry so hosts can register pure scalar
// functions before loading programs.
func (e *Engine) Funcs() *expr.Registry { return e.funcs }

// AttachBase hooks this engine into a multi-client server as one session:
// relation lookups fall back to base (the shared database) when the private
// store misses, has reports shared existence (for static validation), and
// group lets the session's delta pipelines share data-sized join build
// states with every other attached session. Must be called before any
// program loads.
func (e *Engine) AttachBase(base plan.Catalog, has func(name string) bool, group *exec.ShareGroup) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.base, e.baseHas, e.shares = base, has, group
}

// Close releases the engine's references on shared build-side states (the
// server's registry evicts states when their last session releases). No-op
// for single-tenant engines.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, v := range e.views {
		if v.prepared != nil {
			v.prepared.ReleaseShared()
		}
	}
}

// Warnings returns static-analysis warnings accumulated while loading
// programs (e.g. ambiguous interaction pairs).
func (e *Engine) Warnings() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.warnings...)
}

// Store exposes the storage manager (read-only use expected; not for
// concurrent use while the engine is being driven).
func (e *Engine) Store() *Store { return e.store }

// StatsSnapshot returns a copy of the engine counters taken under the
// engine lock, so concurrent sessions can read stats without tearing.
func (e *Engine) StatsSnapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.Stats
	s.Cube.TileBytes = e.tileBytesLocked()
	return s
}

// tileBytesLocked sums the private cube-tile memory across the engine's
// bound plans (a gauge; shared tiles are accounted by the server's
// registry). Caller holds e.mu.
func (e *Engine) tileBytesLocked() int64 {
	var b int64
	for _, v := range e.views {
		if v.prepared != nil {
			b += v.prepared.CubeBytes()
		}
	}
	return b
}

// ApproxBytes estimates the live store's memory under the engine lock (safe
// while the engine is being driven concurrently).
func (e *Engine) ApproxBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.ApproxBytes()
}

// LoadProgram parses and applies a DeVIL program: DDL creates base tables,
// INSERTs load data, assignments define views, EVENT statements compile
// recognizers. After loading, all views are computed, the sinks are bound,
// and the state is committed as version 0 so that @vnow-1 references resolve
// during the first interaction.
func (e *Engine) LoadProgram(src string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.execSrc(src); err != nil {
		return err
	}
	e.commit()
	return nil
}

// Exec applies DeVIL statements without the final commit; use it for
// incremental statements after LoadProgram.
func (e *Engine) Exec(src string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.execSrc(src)
}

// ExecParsed applies already-parsed statements (the server splits one
// parsed program across the shared engine and the sessions).
func (e *Engine) ExecParsed(stmts []parser.Statement) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.execStmts(stmts)
}

func (e *Engine) execSrc(src string) error {
	stmts, err := parser.Parse(src)
	if err != nil {
		return err
	}
	return e.execStmts(stmts)
}

// execStmts applies statements in order, stopping at the first error.
func (e *Engine) execStmts(stmts []parser.Statement) error {
	for _, s := range stmts {
		if err := e.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) execStmt(s parser.Statement) error {
	switch n := s.(type) {
	case *parser.CreateTableStmt:
		if e.hasRel(n.Name) {
			if e.recovering {
				return nil // table rebuilt from the log; adopt it
			}
			return fmt.Errorf("relation %q already exists", n.Name)
		}
		e.guardRestoreBarrier()
		e.store.Put(relation.New(n.Name, n.Schema))
		return nil
	case *parser.InsertStmt:
		if e.recovering {
			return nil // the load's effects replayed from the log
		}
		return e.execInsert(n)
	case *parser.DeleteStmt:
		if e.recovering {
			return nil
		}
		return e.execDelete(n)
	case *parser.EventStmt:
		return e.defineEvent(n)
	case *parser.AssignStmt:
		return e.defineView(n)
	default:
		return fmt.Errorf("unsupported statement %T", s)
	}
}

// guardRestoreBarrier seals any restore window still open on the store
// before a write mutates live state. A host that calls Store().
// RestoreVersion directly (instead of Undo, which commits) would otherwise
// write inside the barrier window, where deltas are dropped from the
// pending set and therefore never journaled to the WAL — replay would lose
// the writes even though the in-memory store stayed correct.
func (e *Engine) guardRestoreBarrier() { e.store.SealRestoreBarrier() }

func (e *Engine) execInsert(n *parser.InsertStmt) error {
	e.guardRestoreBarrier()
	if err := e.writableHere(n.Table); err != nil {
		return err
	}
	target, err := e.store.Get(n.Table)
	if err != nil {
		return err
	}
	if e.isView(n.Table) {
		return fmt.Errorf("cannot INSERT into view %q", n.Table)
	}
	var rows []relation.Tuple
	if n.Query != nil {
		res, err := e.executor().RunQuery(n.Query)
		if err != nil {
			return err
		}
		rows = res.Rel.Rows
	} else {
		// Literal cells are copied as they are; only computed cells (-x,
		// 1 + 2, upper('a')) are bound and evaluated.
		bc := &expr.BindContext{Funcs: e.funcs}
		env := &expr.Env{}
		for _, exprRow := range n.Rows {
			row := make(relation.Tuple, len(exprRow))
			for i, ee := range exprRow {
				if lit, ok := ee.(*expr.Lit); ok {
					row[i] = lit.V
					continue
				}
				v, err := expr.Bind(ee, bc)(env)
				if err != nil {
					return fmt.Errorf("INSERT INTO %s: %w", n.Table, err)
				}
				row[i] = v
			}
			rows = append(rows, row)
		}
	}
	// Optional column list reorders/projects values into schema positions.
	if len(n.Columns) > 0 {
		idx := make([]int, len(n.Columns))
		for i, c := range n.Columns {
			j, err := target.Schema.IndexErr("", c)
			if err != nil {
				return fmt.Errorf("INSERT INTO %s: %w", n.Table, err)
			}
			idx[i] = j
		}
		remapped := make([]relation.Tuple, len(rows))
		for r, row := range rows {
			if len(row) != len(idx) {
				return fmt.Errorf("INSERT INTO %s: row arity %d does not match column list %d", n.Table, len(row), len(idx))
			}
			full := make(relation.Tuple, target.Schema.Len())
			for i := range full {
				full[i] = relation.Null()
			}
			for i, j := range idx {
				full[j] = row[i]
			}
			remapped[r] = full
		}
		rows = remapped
	}
	if err := appendAll(target, rows); err != nil {
		return err
	}
	e.store.recordChange(n.Table, relation.Delta{Ins: rows})
	return e.refresh(changeSet(n.Table, &relation.Delta{Ins: rows}))
}

// appendAll validates every row's arity before appending any, so a bad row
// cannot leave the table partially mutated with no delta issued (which
// would silently desynchronize primed delta pipelines from their inputs).
func appendAll(target *relation.Relation, rows []relation.Tuple) error {
	arity := target.Schema.Len()
	for _, row := range rows {
		if len(row) != arity {
			return fmt.Errorf("relation %s: row arity %d does not match schema arity %d", target.Name, len(row), arity)
		}
	}
	for _, row := range rows {
		target.Rows = append(target.Rows, row)
	}
	return nil
}

// InsertRows appends rows to a base table programmatically — the host-API
// equivalent of INSERT for bulk loads and event-driven writes — producing
// an insert delta for incremental view maintenance.
func (e *Engine) InsertRows(table string, rows []relation.Tuple) error {
	_, err := e.InsertRowsDelta(table, rows)
	return err
}

// InsertRowsDelta is InsertRows returning the full change map of the
// refresh it triggered: the inserted base delta plus the output delta of
// every view the change propagated to (nil marks an unknown change). The
// server's single writer uses it to fan sealed base changes out to every
// attached session.
func (e *Engine) InsertRowsDelta(table string, rows []relation.Tuple) (map[string]*relation.Delta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.guardRestoreBarrier()
	if err := e.writableHere(table); err != nil {
		return nil, err
	}
	target, err := e.store.Get(table)
	if err != nil {
		return nil, err
	}
	if e.isView(table) {
		return nil, fmt.Errorf("cannot insert into view %q", table)
	}
	if err := appendAll(target, rows); err != nil {
		return nil, err
	}
	e.store.recordChange(table, relation.Delta{Ins: rows})
	changes := changeSet(table, &relation.Delta{Ins: rows})
	if err := e.refresh(changes); err != nil {
		return nil, err
	}
	return changes, nil
}

// writableHere rejects writes to relations owned by the shared base of a
// multi-client server: sessions read them, only the server's writer mutates
// them. Single-tenant engines have no base and accept everything.
func (e *Engine) writableHere(name string) error {
	if !e.store.Has(name) && e.baseHas != nil && e.baseHas(name) {
		return fmt.Errorf("relation %q is shared and read-only in this session (write through the server)", name)
	}
	return nil
}

// hasRel reports whether the name resolves here: the private store or the
// shared base.
func (e *Engine) hasRel(name string) bool {
	return e.store.Has(name) || (e.baseHas != nil && e.baseHas(name))
}

func (e *Engine) execDelete(n *parser.DeleteStmt) error {
	e.guardRestoreBarrier()
	if err := e.writableHere(n.Table); err != nil {
		return err
	}
	target, err := e.store.Get(n.Table)
	if err != nil {
		return err
	}
	if e.isView(n.Table) {
		return fmt.Errorf("cannot DELETE from view %q", n.Table)
	}
	if n.Where == nil {
		removed := target.Rows
		target.Rows = nil
		e.store.recordChange(n.Table, relation.Delta{Del: removed})
		return e.refresh(changeSet(n.Table, &relation.Delta{Del: removed}))
	}
	// Qualifying the schema with the table name resolves both x and T.x.
	where := expr.Bind(n.Where, &expr.BindContext{Schema: target.Schema.Qualify(n.Table), Funcs: e.funcs})
	env := &expr.Env{}
	kept := target.Rows[:0:0]
	var removed []relation.Tuple
	for _, row := range target.Rows {
		env.Row = row
		v, err := where(env)
		if err != nil {
			return fmt.Errorf("DELETE FROM %s: %w", n.Table, err)
		}
		if v.IsNull() || !v.Truthy() {
			kept = append(kept, row)
		} else {
			removed = append(removed, row)
		}
	}
	target.Rows = kept
	e.store.recordChange(n.Table, relation.Delta{Del: removed})
	return e.refresh(changeSet(n.Table, &relation.Delta{Del: removed}))
}

func (e *Engine) isView(name string) bool {
	_, ok := e.views[strings.ToLower(name)]
	return ok
}

// defineEvent compiles an EVENT statement, creates the compound event table,
// and runs interaction-ambiguity analysis against existing recognizers.
func (e *Engine) defineEvent(stmt *parser.EventStmt) error {
	rec, err := events.Compile(stmt, e.funcs)
	if err != nil {
		return err
	}
	exists := e.hasRel(stmt.Name)
	if exists && !e.recovering {
		return fmt.Errorf("relation %q already exists", stmt.Name)
	}
	for _, other := range e.recognizers {
		if other.FirstType() == rec.FirstType() {
			e.warnings = append(e.warnings, fmt.Sprintf(
				"ambiguous interactions: %s and %s both start on %s; consider partitioning by space or assigning priorities (§2.1.2)",
				other.Name(), rec.Name(), rec.FirstType()))
		}
	}
	e.recognizers = append(e.recognizers, rec)
	if !exists {
		e.store.Put(relation.New(stmt.Name, rec.Schema()))
	}
	return nil
}

// defineView installs an assignment statement as a materialized view,
// re-runs recursion analysis, recomputes, and marks the frame stale.
func (e *Engine) defineView(stmt *parser.AssignStmt) error {
	if stmt.Name == "" {
		// bare SELECT at top level: evaluate and discard (useful in REPL).
		_, err := e.executor().RunQuery(stmt.Query)
		return err
	}
	e.guardRestoreBarrier()
	k := strings.ToLower(stmt.Name)
	v := &view{name: stmt.Name, key: k, query: stmt.Query, deps: queryDeps(stmt.Query)}
	if r, ok := stmt.Query.(*parser.RenderStmt); ok {
		v.renderAs = &renderSink{markType: r.MarkType}
	}
	if _, ok := stmt.Query.(*parser.TraceStmt); ok {
		v.isTrace = true
	}
	// Validate deps exist (they may be defined as views below/later in the
	// program for vnow refs, but live deps must exist now).
	for _, d := range v.deps {
		if strings.EqualFold(d.name, stmt.Name) && d.cyclic() && !e.hasRel(stmt.Name) {
			return fmt.Errorf("recursive view definition: %s references itself; use @vnow-i or @tnow-j to reference past versions", stmt.Name)
		}
		if !e.hasRel(d.name) && !e.isView(d.name) {
			return fmt.Errorf("view %s references unknown relation %q", stmt.Name, d.name)
		}
	}
	prev, redefinition := e.views[k]
	// During WAL recovery the view's replayed contents are already in the
	// store before its definition reinstalls, which is indistinguishable
	// from a base relation here; adopt instead of rejecting.
	if !redefinition && e.hasRel(stmt.Name) && !e.isView(stmt.Name) && !e.recovering {
		return fmt.Errorf("cannot redefine base relation %q as a view", stmt.Name)
	}
	e.views[k] = v
	if !redefinition {
		e.viewOrder = append(e.viewOrder, stmt.Name)
	}
	topo, err := topoOrder(e.views, e.viewOrder)
	if err != nil {
		// roll back the definition so the engine stays consistent
		if redefinition {
			e.views[k] = prev
		} else {
			delete(e.views, k)
			e.viewOrder = e.viewOrder[:len(e.viewOrder)-1]
		}
		return err
	}
	e.topo = topo
	e.deps = dependents(e.views)
	e.levels = levelPlan(e.views, e.topo, e.deps)
	e.sinks = sinkList(e.views, e.viewOrder)
	e.stale = true // the definition can add, drop or replace a sink
	if e.recovering && e.store.Has(stmt.Name) {
		// WAL recovery already rebuilt this view's contents; install the
		// definition (plans bind lazily, re-priming on first use) without
		// recomputing. Views the program added after the log was written
		// miss this branch and materialize fresh below.
		return nil
	}
	// A (re)definition can only change schemas its transitive dependents
	// were bound against; those rebind lazily on their next recompute.
	// Unrelated views keep their compiled plans (and, under a server, their
	// refcounted shared-state attachments — full invalidation would drop
	// every reference between statements of a loading program, letting a
	// concurrent detach evict the data-sized states mid-attach).
	e.invalidatePlansFor(stmt.Name)
	// Materialize now (full recompute of this view and its dependents; the
	// nil delta marks an unknown change, so dependents recompute too —
	// their cached plans were just invalidated, which also forces them to
	// re-prime). The store accounts the (re)definition inside recomputeView.
	if _, err := e.recomputeView(v); err != nil {
		return err
	}
	return e.refresh(changeSet(stmt.Name, nil))
}

// changeSet builds a one-relation change map: delta nil means the relation
// changed in an unknown way (dependents fall back to full recomputation).
func changeSet(name string, d *relation.Delta) map[string]*relation.Delta {
	return map[string]*relation.Delta{strings.ToLower(name): d}
}

// catalog is the engine's name-resolution view: the private store, chained
// to the shared base (when attached) for names the store misses.
func (e *Engine) catalog() plan.Catalog {
	if e.base == nil {
		return e.store
	}
	return chainCatalog{e}
}

// chainCatalog resolves against the private store first, then the shared
// base. Writes never go through it, so the fallback is read-only by
// construction.
type chainCatalog struct{ e *Engine }

// Resolve implements plan.Catalog over the session's combined namespace.
func (c chainCatalog) Resolve(name string, v relation.VersionRef) (*relation.Relation, error) {
	if c.e.store.Has(name) {
		return c.e.store.Resolve(name, v)
	}
	return c.e.base.Resolve(name, v)
}

// executor builds an executor over the live catalog.
func (e *Engine) executor() *exec.Executor {
	return &exec.Executor{Cat: e.catalog(), Funcs: e.funcs}
}

// preparedFor returns the view's bound plan, building, optimizing, and
// compiling it on first use. Every later recompute of the interaction loop
// reuses the compiled evaluators; no per-event planning or name resolution.
// Under a server (AttachBase) the pipeline binds against the combined
// catalog and attaches to the shared-state registry.
func (e *Engine) preparedFor(v *view) (*exec.Prepared, error) {
	if v.prepared != nil {
		return v.prepared, nil
	}
	tPrep := e.obs.Now()
	defer func() { e.obs.Span(e.curTrace, obs.StagePrepare, v.name, "", tPrep, 0, 0) }()
	p, err := plan.Build(v.query, e.catalog())
	if err != nil {
		return nil, err
	}
	p = plan.Optimize(p, e.funcs)
	prep, err := exec.PrepareShared(p, e.funcs, e.shares)
	if err != nil {
		return nil, err
	}
	// Cube-candidate shape (aggregate over a join) that compiled without the
	// tile path: count the fallback once per bind so the cost of brushing
	// this view O(rows) is visible in stats, not just in a profile.
	if plan.CubeCandidate(p) && !prep.HasCube() {
		e.Stats.Cube.Fallbacks++
	}
	v.prepared = prep
	return prep, nil
}

// invalidatePlansFor drops the bound plans of name's transitive live
// dependents, and of name itself when it is a view. Called on
// (re)definition: only views whose plans could have been bound against the
// changed schema need a rebind; data changes never require any. Shared-
// state references are released first so the registry's refcounts stay
// exact.
func (e *Engine) invalidatePlansFor(name string) {
	dirty := map[string]bool{}
	var mark func(string)
	mark = func(n string) {
		k := strings.ToLower(n)
		if dirty[k] {
			return
		}
		dirty[k] = true
		for _, d := range e.deps[k] {
			mark(d)
		}
	}
	mark(name)
	for k, v := range e.views {
		if dirty[k] && v.prepared != nil {
			v.prepared.ReleaseShared()
			v.prepared = nil
		}
	}
}

// recomputeView materializes one view from its definition. For delta-safe
// views (normal operation), the recompute runs through the stateful
// pipeline so the view is primed for delta application afterwards.
//
// The replacement is accounted to the store's delta log: the returned
// delta is the old-vs-new diff, recorded so version boundaries stay
// O(change). It is nil when the view had no previous contents (first
// materialization, recorded as a creation) and in RecomputeAll mode, where
// the oracle skips diffing and lets the store capture the fresh contents
// at the next boundary instead.
func (e *Engine) recomputeView(v *view) (*relation.Delta, error) {
	e.Stats.ViewRecomputes++
	var rel *relation.Relation
	var err error
	if v.isTrace {
		rel, err = e.runTrace(v.query.(*parser.TraceStmt))
	} else {
		var prep *exec.Prepared
		prep, err = e.preparedFor(v)
		if err == nil {
			ex := e.executor()
			var res *exec.Result
			if prep.DeltaSafe() && !e.cfg.RecomputeAll {
				res, err = ex.RunStateful(prep)
			} else {
				res, err = ex.RunPrepared(prep)
			}
			if err == nil {
				rel = exec.StripQualifiers(res.Rel)
				e.drainCubeStats(prep) // priming can build tiles
				e.drainExecStats(prep)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", v.name, err)
	}
	rel.Name = v.name
	if e.cfg.RecomputeAll {
		e.store.Put(rel)
		return nil, nil
	}
	old, had := e.store.rels[v.key]
	e.store.putQuiet(rel)
	if !had {
		return nil, nil // putQuiet noted the creation
	}
	if !old.Schema.Equal(rel.Schema) {
		// A redefinition changed the view's schema: a tuple-level diff
		// cannot represent that in the delta log (historical reads would
		// pair old tuples with the new schema), so the boundary captures
		// the full new contents as a per-relation reset instead.
		e.store.recordUnknown(v.name)
		return nil, nil
	}
	d := relation.Diff(old, rel)
	e.store.recordChange(v.key, d)
	return &d, nil
}

// refresh propagates changes through the view graph level by level
// (levelPlan), then marks the frame stale if any sink changed. changes maps
// lowercase relation names to their deltas; a nil delta marks an unknown
// change. A dirty view is updated by delta application when its prepared
// pipeline is delta-safe, primed, and every changed input carries a delta;
// otherwise it fully recomputes, and its output delta is derived by diffing
// old vs new contents so downstream views can still consume deltas. Views
// whose every relevant input delta is empty are skipped entirely (their
// contents cannot have changed), except across @tnow edges, where the
// referenced snapshot advances even when the live delta is empty.
func (e *Engine) refresh(changes map[string]*relation.Delta) error {
	if e.cfg.RecomputeAll {
		// Ablation baseline and parity oracle: every view recomputes from
		// scratch on every change, every refresh leaves the frame stale.
		for _, name := range e.topo {
			if _, err := e.recomputeView(e.views[strings.ToLower(name)]); err != nil {
				return err
			}
		}
		return e.frameStale()
	}
	for _, lv := range e.levels {
		if err := e.refreshLevel(lv, changes); err != nil {
			return err
		}
	}
	return e.sinksChanged(changes)
}

// refreshView brings one view up to date with changes: by delta when it
// can, else by full recompute.
func (e *Engine) refreshView(v *view, changes map[string]*relation.Delta) error {
	dirty, emptyOnly := e.dirtiness(v, changes)
	if !dirty {
		if emptyOnly {
			e.Stats.EmptyDeltaSkips++
		}
		return nil
	}
	tView := e.obs.Now()
	if out, path, rowsIn, handled, err := e.tryDelta(v, changes); err != nil {
		return fmt.Errorf("view %s: %w", v.name, err)
	} else if handled {
		changes[v.key] = out
		e.obs.Span(e.curTrace, obs.StageDelta, v.name, path, tView, rowsIn, deltaLen(out))
		return nil
	}
	return e.fallback(v, changes, tView, 0)
}

// fallback fully recomputes a dirty view. recomputeView diffs old vs new
// while accounting the change to the version log, so downstream views still
// receive a delta (and unchanged outputs short-circuit). The fallback span
// runs from start plus extra, the view's share of a sibling level's apply.
func (e *Engine) fallback(v *view, changes map[string]*relation.Delta, start time.Time, extra time.Duration) error {
	d, err := e.recomputeView(v)
	if err != nil {
		return err
	}
	e.Stats.FullFallbacks++
	changes[v.key] = d
	e.spanSince(obs.PathFallback, v.name, start, extra, 0, deltaLen(d))
	return nil
}

// spanSince records a view's delta span lasting from start to now plus
// extra; a zero start (observability off) records nothing.
func (e *Engine) spanSince(path, view string, start time.Time, extra time.Duration, rowsIn, rowsOut int) {
	if start.IsZero() {
		return
	}
	e.obs.SpanDur(e.curTrace, obs.StageDelta, view, path, time.Since(start)+extra, rowsIn, rowsOut)
}

// siblingJob is one streamed view of a level, applied off the caller:
// gathered (v, prep, in, rowsIn) before the fan-out, filled (out, err, dur)
// by whichever goroutine claims it, finished on the caller.
type siblingJob struct {
	v      *view
	prep   *exec.Prepared
	in     map[string]relation.Delta
	rowsIn int
	out    relation.Delta
	err    error
	dur    time.Duration
}

// streamedDirty reports whether a view's update in this refresh is a
// streamed delta apply: the view is dirty, and its pipeline is primed,
// delta-safe and answered by no cube tile. Only such views are worth a
// goroutine; a tile-answered view costs microseconds, less than waking one.
func (e *Engine) streamedDirty(v *view, changes map[string]*relation.Delta) bool {
	p := v.prepared
	if p == nil || v.isTrace || !p.DeltaSafe() || !p.Primed() || p.HasCube() {
		return false
	}
	dirty, _ := e.dirtiness(v, changes)
	return dirty
}

// refreshLevel updates the views of one dependency level. When two or more
// of them are dirty and streamed, it splits the serial loop in three:
//
//   - gather, on the caller: each streamed view's input deltas;
//   - apply: exec.ApplyDelta for those views, claimed through one atomic
//     index by the caller and by min(GOMAXPROCS, n)−1 helper goroutines;
//   - finish, on the caller in topological order: the store patch, version
//     log, stats and spans of each streamed view, and the whole update of
//     every other view of the level (tile-answered, not primed, fallbacks).
//
// Why the apply is safe: views of one level never read one another
// (levelPlan), so every input is in changes before the level starts, and
// the in maps are built before any goroutine runs. A goroutine touches only
// its job, its view's own Prepared (operator state, arenas, atomic
// ExecStats), and a fresh Executor, which ApplyDelta never resolves through.
// Shared build sides are read under the share group's read lock inside
// ApplyDelta, and no goroutine holds it while waiting for another, so a
// waiting writer cannot deadlock the level. e.Stats, the store and changes
// are touched only by the caller, after every apply has returned. An apply
// error has already reset that pipeline; finish falls back to recomputeView,
// exactly as the serial path does.
//
// Outputs, version history and counts are those of refreshView over the
// level in order. So are the spans' views, paths and rows; their durations
// are attributed (OBSERVABILITY.md): the level's gather-and-apply wall time
// is split over the fanned-out views in proportion to their own apply times,
// and each view adds its own finish time, so the spans of a level never sum
// to more than the level took.
func (e *Engine) refreshLevel(lv []*view, changes map[string]*relation.Delta) error {
	n := 0
	if len(lv) > 1 {
		for _, v := range lv {
			if e.streamedDirty(v, changes) {
				n++
			}
		}
	}
	if n < 2 {
		for _, v := range lv {
			if err := e.refreshView(v, changes); err != nil {
				return err
			}
		}
		return nil
	}
	tLevel := e.obs.Now()
	jobs := e.gatherSiblings(lv, changes)
	e.applySiblings(jobs)
	var wall, applied time.Duration
	if !tLevel.IsZero() {
		wall = time.Since(tLevel)
		for i := range jobs {
			applied += jobs[i].dur
		}
	}
	defer clear(jobs) // drop the level's deltas; the slice is reused
	next := 0
	for _, v := range lv {
		if next == len(jobs) || jobs[next].v != v {
			if err := e.refreshView(v, changes); err != nil {
				e.resetSiblings(jobs[next:])
				return err
			}
			continue
		}
		j := &jobs[next]
		next++
		share := wall / time.Duration(len(jobs))
		if applied > 0 {
			share = time.Duration(float64(wall) * float64(j.dur) / float64(applied))
		}
		if err := e.finishSibling(j, changes, share); err != nil {
			e.resetSiblings(jobs[next:])
			return fmt.Errorf("view %s: %w", v.name, err)
		}
	}
	return nil
}

// gatherSiblings builds the level's jobs, in level order, into the reusable
// e.siblings: every dirty streamed view whose changed inputs all carry a
// delta. A view with an unknown input change stays with the caller, which
// recomputes it.
func (e *Engine) gatherSiblings(lv []*view, changes map[string]*relation.Delta) []siblingJob {
	jobs := e.siblings[:0]
	for _, v := range lv {
		if !e.streamedDirty(v, changes) {
			continue
		}
		in, rowsIn, ok := deltaInputs(v, changes)
		if !ok {
			continue
		}
		jobs = append(jobs, siblingJob{v: v, prep: v.prepared, in: in, rowsIn: rowsIn})
	}
	e.siblings = jobs
	return jobs
}

// applySiblings runs ApplyDelta for every job: the caller and up to
// GOMAXPROCS−1 helpers claim jobs through one atomic index, so a helper that
// wakes late finds nothing left and costs the caller nothing. At GOMAXPROCS
// 1, or with one job, no goroutine starts.
func (e *Engine) applySiblings(jobs []siblingJob) {
	timed := e.obs != nil
	var claim atomic.Int64
	work := func() {
		for {
			i := int(claim.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			j := &jobs[i]
			var t time.Time
			if timed {
				t = time.Now()
			}
			j.out, j.err = (&exec.Executor{}).ApplyDelta(j.prep, j.in)
			if timed {
				j.dur = time.Since(t)
			}
		}
	}
	// jobs is empty when every streamed view had an unknown input change
	// (a shared write the server could not describe): no helper then.
	helpers := max(0, min(runtime.GOMAXPROCS(0), len(jobs))-1)
	var wg sync.WaitGroup
	wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	e.helpersStarted += helpers
	work()
	wg.Wait()
}

// finishSibling is the caller's half of a fanned-out view's update: patch
// the store with the applied delta (or fall back to a recompute when the
// apply or the patch failed) and record the view's span, its attributed
// share of the level plus its own finish time.
func (e *Engine) finishSibling(j *siblingJob, changes map[string]*relation.Delta, share time.Duration) error {
	tFinish := e.obs.Now()
	if j.err == nil {
		path, handled, err := e.patchView(j.v, j.prep, j.out, j.rowsIn)
		if err != nil {
			return err
		}
		if handled {
			od := j.out // changes outlives the job slice
			changes[j.v.key] = &od
			e.spanSince(path, j.v.name, tFinish, share, j.rowsIn, od.Len())
			return nil
		}
	}
	return e.fallback(j.v, changes, tFinish, share)
}

// resetSiblings drops the pipeline state of jobs whose apply ran but whose
// finish never will (an earlier view of the level failed): their pipelines
// moved past the store, so they re-prime on their next recompute.
func (e *Engine) resetSiblings(jobs []siblingJob) {
	for i := range jobs {
		jobs[i].prep.ResetState()
	}
}

// deltaLen is a nil-tolerant Delta.Len (a nil delta marks an unknown change).
func deltaLen(d *relation.Delta) int {
	if d == nil {
		return 0
	}
	return d.Len()
}

// dirtiness reports whether the view must update given the changes. The
// second result reports that the view was touched only through empty deltas
// (the short-circuit case, counted for stats).
func (e *Engine) dirtiness(v *view, changes map[string]*relation.Delta) (dirty, emptyOnly bool) {
	touched := false
	for _, d := range v.deps {
		if !d.live() {
			continue
		}
		cd, ok := changes[d.key]
		if !ok {
			continue
		}
		touched = true
		// @tnow snapshots advance with every applied event, so any touch of
		// the referenced relation dirties the view even with an empty delta.
		if d.version.Kind == relation.VersionTNow {
			return true, false
		}
		if cd == nil || !cd.Empty() {
			return true, false
		}
	}
	return false, touched
}

// deltaInputs collects the changed live inputs of a view as the input map of
// a delta apply, with the change rows they carry. ok is false when an input
// changed in an unknown way (a nil delta): the view must recompute.
func deltaInputs(v *view, changes map[string]*relation.Delta) (in map[string]relation.Delta, rowsIn int, ok bool) {
	in = make(map[string]relation.Delta)
	for _, d := range v.deps {
		if !d.live() {
			continue
		}
		cd, ok := changes[d.key]
		if !ok {
			continue
		}
		if cd == nil {
			return nil, 0, false
		}
		in[d.key] = *cd
		rowsIn += cd.Len()
	}
	return in, rowsIn, true
}

// tryDelta attempts the incremental path for a dirty view: applies the
// changed inputs' deltas through the view's primed stateful pipeline and
// patches the materialized relation with the output delta. handled reports
// whether the view was updated this way (out is its output delta, which may
// be empty); path names how the update was computed (cube tiles, a stream
// an aggregate consumed, or a stream with no aggregate consumer) and rowsIn
// the change rows consumed — both feed the view's delta span in the event
// trace. A delta-application failure is not an error: the pipeline resets
// and the caller falls back to full recomputation.
func (e *Engine) tryDelta(v *view, changes map[string]*relation.Delta) (out *relation.Delta, path string, rowsIn int, handled bool, err error) {
	if v.isTrace {
		return nil, "", 0, false, nil
	}
	prep, err := e.preparedFor(v)
	if err != nil {
		return nil, "", 0, false, err
	}
	if !prep.DeltaSafe() || !prep.Primed() {
		return nil, "", 0, false, nil
	}
	in, rowsIn, ok := deltaInputs(v, changes)
	if !ok {
		return nil, "", 0, false, nil // unknown change: must recompute
	}
	od, err := e.executor().ApplyDelta(prep, in)
	if err != nil {
		return nil, "", 0, false, nil // state reset inside; fall back to recompute
	}
	path, handled, err = e.patchView(v, prep, od, rowsIn)
	if !handled {
		return nil, "", 0, false, err
	}
	return &od, path, rowsIn, true, nil
}

// patchView patches a view's materialized relation with its pipeline's
// output delta od and accounts for the update (version log, stats). handled
// is false when the relation was out of sync with the pipeline: the state is
// reset and the caller recomputes. path classifies the apply for the trace.
func (e *Engine) patchView(v *view, prep *exec.Prepared, od relation.Delta, rowsIn int) (path string, handled bool, err error) {
	rel, err := e.store.Get(v.key)
	if err != nil {
		return "", false, err
	}
	if err := rel.ApplyDelta(od); err != nil {
		// Materialized contents out of sync with the pipeline (host
		// mutation?); re-prime via full recompute.
		prep.ResetState()
		return "", false, nil
	}
	if prep.Ordered() {
		// ORDER BY views: the bag patch above verified consistency, but row
		// order carries meaning — replace the rows with the pipeline's
		// maintained order (O(k) for top-k prefixes). The sort span nests
		// inside the view's delta span (documented in OBSERVABILITY.md).
		tSort := e.obs.Now()
		rel.Rows = prep.OrderedRows()
		e.obs.Span(e.curTrace, obs.StageSort, v.name, "", tSort, 0, len(rel.Rows))
	}
	e.store.recordChange(v.key, od)
	e.Stats.ViewDeltaApplies++
	e.Stats.DeltaRowsIn += rowsIn
	e.Stats.DeltaRowsOut += od.Len()
	if ts := prep.TakeTopKStats(); ts != (exec.TopKStats{}) {
		if ts.TreeRows > e.Stats.TopK.TreeRows {
			e.Stats.TopK.TreeRows = ts.TreeRows
		}
		e.Stats.TopK.PrefixEmits += ts.PrefixEmits
		e.Stats.TopK.Evictions += ts.Evictions
	}
	cs := e.drainCubeStats(prep)
	es := e.drainExecStats(prep)
	// Classify the apply for the trace: tiles answered it, an aggregate
	// consumed the stream, or the view has no aggregate and its rows went
	// straight to the output delta.
	switch {
	case cs.Hits > 0 || cs.Builds > 0:
		path = obs.PathCube
	case es.FusedApplies > 0:
		path = obs.PathFused
	default:
		path = obs.PathRow
	}
	return path, true, nil
}

// drainCubeStats folds a pipeline's cube counters into the engine stats
// (Fallbacks and the TileBytes gauge are engine-level, never drained) and
// returns the drained batch so callers can classify the apply path.
func (e *Engine) drainCubeStats(prep *exec.Prepared) exec.CubeStats {
	cs := prep.TakeCubeStats()
	if cs != (exec.CubeStats{}) {
		e.Stats.Cube.Builds += cs.Builds
		e.Stats.Cube.Hits += cs.Hits
		e.Stats.Cube.BinsAnswered += cs.BinsAnswered
	}
	return cs
}

// drainExecStats folds a pipeline's aggregate-stream counters into the engine
// stats, returning the drained batch.
func (e *Engine) drainExecStats(prep *exec.Prepared) exec.ExecStats {
	es := prep.TakeExecStats()
	if es != (exec.ExecStats{}) {
		e.Stats.Exec.BatchRows += es.BatchRows
		e.Stats.Exec.FusedApplies += es.FusedApplies
	}
	return es
}

// resetDeltaStates drops every view's delta-pipeline state. Called when the
// live store changes behind the pipelines' backs (rollback, undo, version
// restore); the next recompute re-primes each view.
func (e *Engine) resetDeltaStates() {
	for _, v := range e.views {
		if v.prepared != nil {
			v.prepared.ResetState()
		}
	}
}

// restoreOrderedViews re-sorts every ORDER BY view's live rows. The store's
// rollback/restore paths rewrite contents through bag-level deltas, which
// restore the exact bag but not row order — and for ordered views the order
// is part of the contract (hosts read it, sinks paint it). Must run after
// any store-level restore, before rendering.
//
// Re-sorting is best-effort per view: view definitions are not versioned,
// so a restore can hand back rows computed under a *previous* definition
// whose columns the current plan's sort keys cannot evaluate. Such views
// keep the restored bag order (exactly the pre-ordered-maintenance
// behavior) rather than failing the whole undo/rollback; OrderRows
// evaluates every key before moving a row, so a failed view is left
// untouched, not half-sorted.
func (e *Engine) restoreOrderedViews() error {
	for _, name := range e.viewOrder {
		v := e.views[strings.ToLower(name)]
		// A nil prepared means the view was just (re)defined; its pending
		// full recompute materializes in order anyway.
		if v.prepared == nil || !v.prepared.Ordered() {
			continue
		}
		rel, err := e.store.Get(v.name)
		if err != nil {
			return err
		}
		_ = v.prepared.OrderRows(rel.Rows) // best-effort; see above
	}
	return nil
}

// FeedEvent routes one low-level event through every recognizer, applies
// emitted compound-event rows to storage, maintains views, marks the frame
// stale when a sink changed, and drives transaction begin/commit/abort. The
// returned TxnEvent summarizes what happened.
func (e *Engine) FeedEvent(ev events.Event) (TxnEvent, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.feedEvent(ev)
}

func (e *Engine) feedEvent(ev events.Event) (TxnEvent, error) {
	e.guardRestoreBarrier()
	e.Stats.EventsFed++
	var out TxnEvent
	// Open the event trace: every stage below records a span, the total
	// lands in dvms_event_seconds, and over-budget events keep their full
	// breakdown in the slow log. All obs calls are nil-safe no-ops on the
	// DisableObs arm.
	tr := e.obs.StartEvent(ev.Type)
	e.curTrace = tr
	defer func() {
		e.curTrace = nil
		e.obs.EndEvent(tr, out.Interaction)
	}()
	consumed := false
	for _, rec := range e.recognizers {
		tRec := e.obs.Now()
		acts, err := rec.Feed(ev)
		e.obs.Span(tr, obs.StageRecognize, rec.Name(), "", tRec, 0, len(acts.Rows))
		if err != nil {
			return out, err
		}
		if acts.Filtered {
			continue
		}
		consumed = true
		out.Interaction = rec.Name()
		ck := keyOf(rec.Name()) // the compound table's key, lowercased once
		ct, err := e.store.Get(ck)
		if err != nil {
			return out, err
		}
		var cd relation.Delta
		if acts.Began {
			out.Began = true
			// Each interaction starts from a fresh compound table; the old
			// rows leave as deletes. The clear is recorded before BeginTxn
			// seals the begin boundary, so the transaction-begin state has
			// the table empty (views catch up on the first refresh below),
			// exactly as the snapshot store captured it.
			cd.Del = ct.Rows
			ct.Rows = nil
			e.store.recordChange(ck, relation.Delta{Del: cd.Del})
			e.store.BeginTxn()
			e.activeTxn = rec.Name()
		}
		// Validate every row before appending any (like execInsert), so an
		// arity error cannot leave live rows the delta log never recorded.
		if err := appendAll(ct, acts.Rows); err != nil {
			return out, err
		}
		cd.Ins = acts.Rows
		out.RowsEmitted += len(acts.Rows)
		if acts.Began || len(acts.Rows) > 0 {
			e.store.recordChange(ck, relation.Delta{Ins: acts.Rows})
			// Cancel delete/insert pairs so an interaction restart that
			// reproduces existing rows does not ripple through the dataflow.
			cd = cd.Consolidate()
			if err := e.refresh(changeSet(ck, &cd)); err != nil {
				return out, err
			}
		}
		// The commit span covers the version-boundary seal — and with a WAL
		// attached, the store sink's append (and under -fsync always, the
		// fsync) runs inside it, so durable serving shows up in the trace.
		tSeal := e.obs.Now()
		switch {
		case acts.Committed:
			out.Committed = true
			out.Version = e.commit()
			e.activeTxn = ""
		case acts.Aborted:
			out.Aborted = true
			e.Stats.Aborts++
			if err := e.abort(rec.Name()); err != nil {
				return out, err
			}
			e.activeTxn = ""
		default:
			e.store.MarkEvent()
		}
		e.obs.Span(tr, obs.StageCommit, rec.Name(), "", tSeal, 0, 0)
	}
	if !consumed {
		e.Stats.EventsFiltered++
	}
	return out, nil
}

// FeedStream feeds a whole event stream, returning the transaction summary
// of each event.
func (e *Engine) FeedStream(stream events.Stream) ([]TxnEvent, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]TxnEvent, 0, len(stream))
	for _, ev := range stream {
		te, err := e.feedEvent(ev)
		if err != nil {
			return out, err
		}
		out = append(out, te)
	}
	return out, nil
}

// ApplyExternalDeltas propagates changes to relations this engine does not
// own — the shared base of a multi-client server — through the private view
// graph: dirty views update by delta where possible and the frame goes
// stale if a sink changed. changes maps lowercase relation names to
// deltas (nil marks an unknown change, forcing dependents to recompute);
// the map is extended in place with the private views' own output deltas,
// so callers must hand each engine its own copy.
func (e *Engine) ApplyExternalDeltas(changes map[string]*relation.Delta) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.refresh(changes)
}

// Commit pushes the current state as a new committed version and returns
// its index.
func (e *Engine) Commit() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commit()
}

func (e *Engine) commit() int {
	e.Stats.Commits++
	return e.store.Commit()
}

// abort rolls the whole database back to the last committed version (the
// state before the interaction began) and marks the frame stale — §2.1.2: "abort is
// equivalent to clearing the compound event table C in order to roll back".
func (e *Engine) abort(compound string) error {
	if err := e.store.Rollback(); err != nil {
		return err
	}
	ct, err := e.store.Get(compound)
	if err != nil {
		return err
	}
	removed := ct.Rows
	ct.Rows = nil
	e.store.recordChange(compound, relation.Delta{Del: removed})
	// The rollback rewrote live contents without deltas; every delta
	// pipeline is now stale and re-primes on its next recompute.
	e.resetDeltaStates()
	if err := e.restoreOrderedViews(); err != nil {
		return err
	}
	return e.frameStale()
}

// Undo rewinds the database to the previous committed version and commits
// that state as a new version (so redo is a further Undo of depth 2, per
// the versioning semantics of §2.1.3).
func (e *Engine) Undo() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.store.RestoreVersion(2); err != nil {
		return err
	}
	e.resetDeltaStates()
	if err := e.restoreOrderedViews(); err != nil {
		return err
	}
	if err := e.frameStale(); err != nil {
		return err
	}
	e.commit()
	return nil
}

// Relation returns the current contents of a base relation or view; names
// absent from the private store fall back to the shared base (server
// sessions).
func (e *Engine) Relation(name string) (*relation.Relation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.store.Has(name) && e.baseHas != nil && e.baseHas(name) {
		return e.base.Resolve(name, relation.VersionRef{})
	}
	return e.store.Get(name)
}

// RelationAt returns a relation's contents at a version reference. For
// ORDER BY views the historical bag is re-sorted into the current
// definition's output order (reconstruction is bag-level and loses it);
// the store's copy — possibly cached or live — is left untouched. The
// re-sort is best-effort: versions that predate a view redefinition carry
// that version's schema (the store keeps it deliberately), which the
// current sort keys may not evaluate against — those come back in
// reconstruction order, as before ordered maintenance existed.
func (e *Engine) RelationAt(name string, v relation.VersionRef) (*relation.Relation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.store.Has(name) && e.baseHas != nil && e.baseHas(name) {
		return e.base.Resolve(name, v)
	}
	rel, err := e.store.Resolve(name, v)
	if err != nil {
		return nil, err
	}
	vw, ok := e.views[strings.ToLower(name)]
	if !ok || vw.prepared == nil || !vw.prepared.Ordered() {
		return rel, nil
	}
	out := *rel
	out.Rows = append([]relation.Tuple(nil), rel.Rows...)
	if err := vw.prepared.OrderRows(out.Rows); err != nil {
		return rel, nil // historical schema predates the current ORDER BY
	}
	return &out, nil
}

// Query runs an ad-hoc DeVIL query against the current state.
func (e *Engine) Query(src string) (*relation.Relation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	res, err := e.executor().RunQuery(q)
	if err != nil {
		return nil, err
	}
	return exec.StripQualifiers(res.Rel), nil
}

// ViewNames lists views in definition order.
func (e *Engine) ViewNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.viewOrder...)
}

// InTxn reports whether an interaction is in flight.
func (e *Engine) InTxn() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.activeTxn != ""
}
