package exec

// Shared operator state across prepared pipelines. A multi-client server
// hosts many sessions over the same base data; every session's delta
// pipeline for a view like
//
//	SELECT ... FROM Sales AS s, selected_months AS m WHERE s.month = m.month
//
// would otherwise build its own copy of the large build-side join state
// (Sales indexed by month — data-sized), even though that state depends only
// on shared base relations and is bit-identical across sessions. A
// ShareGroup is a registry of such states: when a delta pipeline is built
// with PrepareShared, join sides whose input subtree reads only shared
// relations are attached to a refcounted ShareGroup entry keyed by the
// subtree's structural fingerprint. The first pipeline to prime builds the
// state; every later pipeline (other sessions, or other views of the same
// session joining through the same subtree) reuses it.
//
// Concurrency contract: sessions are readers, the server's writer is the
// single mutator.
//
//   - RunStateful on a pipeline with shared sides takes the group's write
//     lock (it may build and publish a state); ApplyDelta takes the read
//     lock (it only probes shared states — session pipelines never mutate
//     them, their private deltas cannot touch shared inputs).
//   - Base-data changes go through Advance: the single writer applies each
//     sealed base delta to every shared state exactly once (write lock),
//     caching each side's subtree output delta. It then fans the same base
//     deltas out to the sessions, whose pipelines read the cached subtree
//     delta (currentDelta) instead of re-deriving — and re-applying — it.
//   - EndAdvance clears the cached deltas once every session has consumed
//     them.
//
// Delta ordering stays exact: the writer advances a shared side S to S_new
// before any session processes the batch, and a session's join rule needs
// ΔS ⋈ P_old (its private side P is untouched until it processes ΔP, which
// is empty during a base-data fan-out) and S_new ⋈ ΔP on private changes
// (probing the already-advanced shared state) — both of which hold. To keep
// this true when a single join reads shared relations on both sides, only
// one side of any join is ever shared (preferring the left/build side).

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/relation"
)

// ShareStats counts the registry's work. Builds and Rebuilds tell the
// server's benchmarks that data-sized state was instantiated once per
// distinct fingerprint, not once per session; Reuses counts the pipeline
// attachments served by an existing state.
type ShareStats struct {
	Builds    int64 // side states primed from empty by the first pipeline to attach
	Rebuilds  int64 // states reconstructed by the writer (unknown base change)
	Reuses    int64 // pipeline attachments that found the state already built
	Evictions int64 // states dropped when their last pipeline released
	Advances  int64 // base-delta batches applied by the single writer
}

// ShareGroup is the registry of operator states shared across the prepared
// pipelines of one server. It holds two kinds of entries: join build sides
// (sharedSide) and data-cube index tiles (sharedCube). The zero value is not
// usable; use NewShareGroup.
type ShareGroup struct {
	mu     sync.RWMutex
	shared func(name string) bool // which (lowercase) relation names are shared
	sides  map[string]*sharedSide
	cubes  map[string]*sharedCube
	stats  ShareStats

	// OnTileBuild, when set (once, before the group is used), is told of
	// every shared tile build (first attach, writer's rebuild) as it finishes
	// — fact rows folded, goroutines the fold was spread over, time taken —
	// on the goroutine that built, with the group write lock held.
	OnTileBuild func(rows int64, workers int, took time.Duration)
}

// NewShareGroup creates a registry. shared reports whether a relation name
// (lowercase) is part of the shared base database — only subtrees reading
// exclusively shared relations are eligible for state sharing.
func NewShareGroup(shared func(name string) bool) *ShareGroup {
	return &ShareGroup{
		shared: shared,
		sides:  make(map[string]*sharedSide),
		cubes:  make(map[string]*sharedCube),
	}
}

// IsShared reports whether the relation name belongs to the shared base.
func (g *ShareGroup) IsShared(name string) bool {
	return g != nil && g.shared != nil && g.shared(strings.ToLower(name))
}

// Stats returns a copy of the registry counters.
func (g *ShareGroup) Stats() ShareStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.stats
}

// Sides reports the number of distinct shared states currently registered
// (join build sides plus cube tile stores).
func (g *ShareGroup) Sides() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.sides) + len(g.cubes)
}

// SharedRows reports the total rows currently held or summarized across
// shared states — the data-sized memory (or data-sized work, for tiles,
// which summarize their fact rows instead of retaining them) the sessions
// are amortizing.
func (g *ShareGroup) SharedRows() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var n int64
	for _, sd := range g.sides {
		n += sd.rows
	}
	for _, sc := range g.cubes {
		n += sc.tiles.factRows
	}
	return n
}

// ApproxBytes estimates the memory held by shared states (row references,
// bucket tables, and key copies), for the shared-vs-private accounting the
// fan-out benchmark reports.
func (g *ShareGroup) ApproxBytes() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var b int64
	for _, sd := range g.sides {
		// One row-reference slot per row, plus bucket and key overhead for
		// keyed states.
		b += sd.rows * 24
		if sd.state != nil && sd.state.keyed {
			b += int64(len(sd.state.keys)) * 64
		}
	}
	for _, sc := range g.cubes {
		b += sc.tiles.approxBytes()
	}
	return b
}

// sharedSide is one shared join build side: the indexed state, the canonical
// subtree that feeds it (donated by the pipeline that built it), and the
// key evaluators of the owning join. All fields are guarded by the group
// lock; state is replaced wholesale on rebuild, so readers must fetch it
// through the side on every use.
type sharedSide struct {
	fp    string
	reads []string // lowercase relation names the subtree scans
	refs  int
	built bool

	sub   dnode           // canonical subtree; only the writer drives it after build
	keys  []expr.Compiled // owning join's key evaluators for this side
	kraw  []expr.Expr
	keyed bool
	state *joinSideState
	rows  int64 // subtree output rows (NULL-keyed ones included, though never indexed)

	// cur is the subtree's output delta for the in-flight Advance batch;
	// session pipelines consume it through currentDelta instead of deriving
	// (and wrongly re-applying) it themselves.
	cur    relation.Delta
	curSet bool
}

// currentDelta returns the subtree output delta of the in-flight base-data
// batch (zero outside an Advance window). Callers hold the group read lock.
func (sd *sharedSide) currentDelta() relation.Delta {
	if !sd.curSet {
		return relation.Delta{}
	}
	return sd.cur
}

// lookup returns the side registered under fp, creating an empty entry on
// first use. Caller holds the group write lock.
func (g *ShareGroup) lookup(fp string, reads []string) *sharedSide {
	sd, ok := g.sides[fp]
	if !ok {
		sd = &sharedSide{fp: fp, reads: reads}
		g.sides[fp] = sd
	}
	return sd
}

// release drops one pipeline's reference. Unreferenced states are not
// evicted here — plan invalidation (view redefinition) releases and
// immediately re-acquires, and dropping the data-sized state across that
// window would rebuild it for nothing. Sweep reclaims them.
func (g *ShareGroup) release(sd *sharedSide) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sd.refs--
}

// Sweep evicts states no pipeline references (sessions detached, plans
// redefined away), returning how many were dropped. The server calls it on
// session detach/eviction.
func (g *ShareGroup) Sweep() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for fp, sd := range g.sides {
		if sd.refs <= 0 {
			delete(g.sides, fp)
			g.stats.Evictions++
			n++
		}
	}
	for fp, sc := range g.cubes {
		if sc.refs <= 0 {
			delete(g.cubes, fp)
			g.stats.Evictions++
			n++
		}
	}
	return n
}

// build primes the canonical subtree from empty and publishes the indexed
// state. Caller holds the group write lock.
func (sd *sharedSide) build(ex *Executor) error {
	sd.sub.reset()
	sd.state, sd.rows = newJoinSideState(sd.keyed), 0
	err := sd.advance(deltaIn{cat: ex.Cat})
	sd.built = err == nil
	return err
}

// advance applies one batch to the shared state and — unless the batch is
// the priming one, which no session consumes as a change — caches the
// subtree's output delta for the sessions. Rows with NULL keys never match
// and are kept out of the index, exactly as a private side does. Caller
// holds the group write lock.
func (sd *sharedSide) advance(in deltaIn) error {
	var din relation.Delta
	var arena valueArena
	env := &expr.Env{}
	key := make(relation.Tuple, len(sd.keys))
	err := sd.sub.apply(in, func(l, r relation.Tuple, sign int) error {
		row := arena.concat(l, r)
		if !in.priming() {
			record(&din, row, sign)
		}
		sd.rows += int64(sign)
		if sd.keyed {
			env.Row = row
			null, err := evalKeys(sd.keys, sd.kraw, key, env)
			if err != nil || null {
				return err
			}
		}
		if sign > 0 {
			sd.state.add(key, row)
			return nil
		}
		return sd.state.remove(key, row)
	})
	if err == nil && !in.priming() {
		sd.cur, sd.curSet = din, true
	}
	return err
}

// Advance applies one sealed base-data batch to every shared state, exactly
// once, before the server fans the same batch out to the sessions. in maps
// lowercase relation names to their deltas; unknown names whose change
// could not be expressed as a delta (the corresponding shared state is
// rebuilt from scratch). ex must resolve names against the shared base
// catalog. Call EndAdvance after every session has refreshed.
func (g *ShareGroup) Advance(ex *Executor, in map[string]relation.Delta, unknown map[string]bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stats.Advances++
	for _, sd := range g.sides {
		if !sd.built {
			continue
		}
		if readsAny(sd.reads, unknown) {
			if err := sd.build(ex); err != nil {
				return fmt.Errorf("shared state %s: rebuild: %w", sd.fp, err)
			}
			g.stats.Rebuilds++
			// No cur delta: sessions reading this side fall back to full
			// recomputation (the server hands them a nil delta for the
			// unknown relation, which forces it).
			sd.cur, sd.curSet = relation.Delta{}, false
			continue
		}
		if err := sd.advance(deltaIn{rel: in}); err != nil {
			// The delta could not be applied (inconsistent bookkeeping);
			// rebuild so sessions keep probing a correct state.
			if rerr := sd.build(ex); rerr != nil {
				return fmt.Errorf("shared state %s: %v; rebuild: %w", sd.fp, err, rerr)
			}
			g.stats.Rebuilds++
			sd.cur, sd.curSet = relation.Delta{}, false
		}
	}
	for _, sc := range g.cubes {
		if !sc.built {
			continue
		}
		if readsAny(sc.reads, unknown) {
			if err := sc.build(g, ex); err != nil {
				return fmt.Errorf("shared cube %s: rebuild: %w", sc.fp, err)
			}
			g.stats.Rebuilds++
			continue
		}
		if err := sc.advance(deltaIn{rel: in}); err != nil {
			if rerr := sc.build(g, ex); rerr != nil {
				return fmt.Errorf("shared cube %s: %v; rebuild: %w", sc.fp, err, rerr)
			}
			g.stats.Rebuilds++
		}
	}
	return nil
}

// EndAdvance clears the cached per-side deltas of the finished batch.
func (g *ShareGroup) EndAdvance() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, sd := range g.sides {
		sd.cur, sd.curSet = relation.Delta{}, false
	}
	for _, sc := range g.cubes {
		sc.touched = untouch(sc.touched, sc.marks)
	}
}

// --- shared cubes ---

// sharedCube is one shared data-cube tile store (see cube.go): the cells
// summarizing the fact subtree by (bin, group), the canonical subtree that
// feeds them (donated by the pipeline that built them, driven only by the
// writer afterwards), and the compiled shape that maintains them. All fields
// are guarded by the group lock; a rebuild replaces the tiles wholesale, so
// readers fetch them through the entry on every use.
type sharedCube struct {
	fp    string
	reads []string // lowercase relation names the fact subtree scans
	refs  int
	built bool

	sub     dnode // canonical fact subtree; only the writer drives it after build
	shape   cubeShape
	tiles   *cubeTiles
	scratch *cubeScratch // the writer's fold scratch

	// touched lists (and marks flags) the groups whose cells the in-flight
	// Advance batch changed: the totals sessions have to re-derive.
	touched []int32
	marks   []bool
}

// lookupCube returns the cube registered under fp, creating an empty entry
// on first use. Caller holds the group write lock.
func (g *ShareGroup) lookupCube(fp string, reads []string) *sharedCube {
	sc, ok := g.cubes[fp]
	if !ok {
		sc = &sharedCube{fp: fp, reads: reads, tiles: &cubeTiles{}}
		g.cubes[fp] = sc
	}
	return sc
}

// releaseCube drops one pipeline's reference; Sweep reclaims unreferenced
// entries (same lifecycle as join sides).
func (g *ShareGroup) releaseCube(sc *sharedCube) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sc.refs--
}

// build primes the canonical fact subtree from empty and publishes fresh
// tiles, with prefix arrays ready (sessions cannot build them under the read
// lock). Caller holds the group write lock.
func (sc *sharedCube) build(g *ShareGroup, ex *Executor) error {
	start := time.Now()
	sc.sub.reset()
	sc.scratch, sc.touched, sc.marks = sc.shape.newScratch(), nil, nil // group ids start over
	tiles, chunks, err := primeTiles(&sc.shape, sc.sub, ex.Cat, 0)
	sc.built = err == nil
	if err != nil {
		return err
	}
	tiles.ensurePrefix()
	sc.tiles = tiles
	if g.OnTileBuild != nil {
		g.OnTileBuild(tiles.factRows, chunks, time.Since(start))
	}
	return nil
}

// advance applies one base-data batch to the shared tiles, noting the groups
// it touches for the sessions, and rebuilds the prefix arrays, so sessions
// keep the O(1) answer path without ever mutating shared state. Caller
// holds the group write lock.
func (sc *sharedCube) advance(in deltaIn) error {
	err := eachBatch(sc.sub, in, func(rows []relation.Tuple, sign int) error {
		err := sc.tiles.fold(&sc.shape, sc.scratch, rows, sign)
		sc.touched, sc.marks = sc.scratch.touch(sc.touched, sc.marks)
		return err
	})
	if err != nil {
		return err
	}
	sc.tiles.ensurePrefix()
	sc.tiles.takeBuilds() // writer-side maintenance, not a session's build
	return nil
}

func readsAny(reads []string, set map[string]bool) bool {
	for _, r := range reads {
		if set[r] {
			return true
		}
	}
	return false
}

// --- subtree fingerprinting ---

// bnodeInfo returns a canonical description of a bound subtree and the set
// of relation names it reads (lowercase, sorted). Two pipelines whose sides
// fingerprint identically compute identical states from the shared catalog,
// so the description doubles as the sharing key. ok is false for shapes
// whose evaluation depends on per-execution resolution (those never appear
// inside delta pipelines, but the walk is defensive).
func bnodeInfo(b bnode) (fp string, reads []string, ok bool) {
	set := map[string]bool{}
	fp, ok = fpWalk(b, set)
	if !ok {
		return "", nil, false
	}
	for r := range set {
		reads = append(reads, r)
	}
	sort.Strings(reads)
	return fp, reads, true
}

func fpWalk(b bnode, reads map[string]bool) (string, bool) {
	switch t := b.(type) {
	case *bScan:
		if t.s.Name == "" {
			return "const", true
		}
		reads[strings.ToLower(t.s.Name)] = true
		return "scan(" + strings.ToLower(t.s.Name) + t.s.Version.String() + " as " + t.s.Alias + ")", true
	case *bFilter:
		if t.pred.raw != nil && t.pred.fn == nil {
			return "", false
		}
		child, ok := fpWalk(t.child, reads)
		if !ok {
			return "", false
		}
		return "filter[" + t.pred.String() + "](" + child + ")", true
	case *bProject:
		if t.static == nil && len(t.items) > 0 {
			return "", false
		}
		child, ok := fpWalk(t.child, reads)
		if !ok {
			return "", false
		}
		var items []string
		for i := range t.items {
			items = append(items, t.items[i].String())
		}
		return "project[" + strings.Join(items, ",") + "](" + child + ")", true
	case *bJoin:
		if t.residual.raw != nil && t.residual.fn == nil {
			return "", false
		}
		l, ok := fpWalk(t.l, reads)
		if !ok {
			return "", false
		}
		r, ok := fpWalk(t.r, reads)
		if !ok {
			return "", false
		}
		return "join[" + exprList(t.lkRaw) + "=" + exprList(t.rkRaw) + ";" + t.residual.String() + "](" + l + ")(" + r + ")", true
	case *bAggregate:
		if t.static == nil {
			return "", false
		}
		child, ok := fpWalk(t.child, reads)
		if !ok {
			return "", false
		}
		p := t.static
		hav := "<nil>"
		if t.a.Having != nil {
			hav = t.a.Having.String()
		}
		return "agg[" + strings.Join(p.groupStr, ",") + ";" + strings.Join(p.itemStr, ",") + ";" + hav + "](" + child + ")", true
	case *bDistinct:
		child, ok := fpWalk(t.child, reads)
		if !ok {
			return "", false
		}
		return "distinct(" + child + ")", true
	case *bSort:
		if t.static == nil {
			return "", false
		}
		child, ok := fpWalk(t.child, reads)
		if !ok {
			return "", false
		}
		var keys []string
		for i, k := range t.keys {
			dir := "asc"
			if t.s.Keys[i].Desc {
				dir = "desc"
			}
			keys = append(keys, k.String()+" "+dir)
		}
		return "sort[" + strings.Join(keys, ",") + "](" + child + ")", true
	case *bLimit:
		child, ok := fpWalk(t.child, reads)
		if !ok {
			return "", false
		}
		return fmt.Sprintf("limit[%d](%s)", t.n, child), true
	case *bSetOp:
		l, ok := fpWalk(t.l, reads)
		if !ok {
			return "", false
		}
		r, ok := fpWalk(t.r, reads)
		if !ok {
			return "", false
		}
		return fmt.Sprintf("setop[%d,%t](%s)(%s)", t.kind, t.all, l, r), true
	default:
		return "", false
	}
}

func exprList(es []expr.Expr) string {
	var out []string
	for _, e := range es {
		out = append(out, e.String())
	}
	return strings.Join(out, ",")
}
