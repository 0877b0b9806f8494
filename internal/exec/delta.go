package exec

// Stateful delta pipeline. For delta-safe plans (plan.DeltaSafety), Prepare
// builds — alongside the stateless bound operators — a parallel tree of
// long-lived stateful operators that keep whatever each operator needs to
// turn an input delta into its exact output delta: join operators keep both
// inputs indexed by key, aggregation keeps per-group accumulator state
// (with removal support), set operations keep tuple counts.
//
// Every operator states its change rule exactly once, as apply: push the
// output delta of one input batch into a sink while folding the batch into
// the operator's state. The two other things the pipeline needs are that
// rule again, not second implementations of it: a materialized
// relation.Delta is the stream collected (collect), and priming is the rule
// applied from empty state to the batch in which every scanned relation is
// inserted whole (deltaIn.cat). After priming, each delta application costs
// work proportional to the change rather than the data. Any inconsistency
// (a delete for a row the state never saw) resets the pipeline and surfaces
// an error; callers fall back to full recomputation, which re-primes.

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
)

// dnode is one stateful operator of the delta pipeline.
type dnode interface {
	// apply pushes the subtree's output delta for one input batch into sink,
	// updating operator state as it goes. State is created on first use, so
	// the first apply after a reset is the priming one.
	apply(in deltaIn, sink deltaSink) error
	// reset drops all retained state.
	reset()
}

// deltaIn is one batch of base-relation changes. The priming batch takes an
// empty pipeline to the catalog's current contents: it carries the catalog
// instead of deltas, and every scan's change is its whole relation, inserted.
type deltaIn struct {
	rel map[string]relation.Delta // changes by lowercase relation name
	cat plan.Catalog              // non-nil for the priming batch
}

func (in deltaIn) priming() bool { return in.cat != nil }

// record appends one signed row to a materialized delta. Most deltas are a
// handful of rows; starting each list at eight slots spares them the
// 1-2-4-8 regrowth of a bare append.
func record(d *relation.Delta, row relation.Tuple, sign int) {
	list := &d.Ins
	if sign < 0 {
		list = &d.Del
	}
	if *list == nil {
		*list = make([]relation.Tuple, 0, 8)
	}
	*list = append(*list, row)
}

// eachSigned replays a materialized delta as a stream: inserts, then deletes.
func eachSigned(d relation.Delta, fn func(row relation.Tuple, sign int) error) error {
	for _, row := range d.Ins {
		if err := fn(row, +1); err != nil {
			return err
		}
	}
	for _, row := range d.Del {
		if err := fn(row, -1); err != nil {
			return err
		}
	}
	return nil
}

// collector is the one place a stream becomes a relation.Delta: a pipeline
// root's output is collected through it; every operator below the root folds
// its child's stream itself. Each Prepared owns one, with push bound once, so
// collecting costs an event no allocation beyond the rows' own lists.
type collector struct {
	out   relation.Delta
	arena valueArena
}

func (c *collector) push(l, r relation.Tuple, sign int) error {
	record(&c.out, c.arena.concat(l, r), sign)
	return nil
}

// collect applies one batch to the pipeline and materializes its output
// delta.
func (p *Prepared) collect(in deltaIn) (relation.Delta, error) {
	p.col = collector{} // fresh lists and arena: the last batch's are the caller's now
	err := p.droot.apply(in, p.push)
	return p.col.out, err
}

// deltaBuilder mirrors the bound-operator tree with stateful delta
// operators, collecting the order-statistic (dSort) nodes it creates so the
// Prepared can surface their stats and ordered output. With a non-nil group
// (multi-client serving) it additionally marks join sides whose subtree
// reads only shared relations for state sharing, collecting those joins so
// the Prepared can release its references on close.
type deltaBuilder struct {
	sorts       []*dSort
	group       *ShareGroup
	shared      []*dJoin
	cubes       []*dCube   // all cube operators, for stats/bytes
	sharedCubes []*dCube   // the subset attached to the group registry
	es          *ExecStats // aggregate-stream counters shared by the whole tree
}

// build returns false for shapes without a delta rule; callers gate on
// plan.DeltaSafety first, so a false here is belt and braces.
func (db *deltaBuilder) build(b bnode) (dnode, bool) {
	switch t := b.(type) {
	case *bScan:
		return &dScan{s: t.s}, true
	case *bFilter:
		if t.pred.raw != nil && t.pred.fn == nil {
			return nil, false // needs per-run resolution
		}
		child, ok := db.build(t.child)
		if !ok {
			return nil, false
		}
		return &dFilter{b: t, child: child}, true
	case *bProject:
		if t.static == nil && len(t.items) > 0 {
			return nil, false
		}
		child, ok := db.build(t.child)
		if !ok {
			return nil, false
		}
		return &dProject{b: t, child: child}, true
	case *bJoin:
		if t.residual.raw != nil && t.residual.fn == nil {
			return nil, false
		}
		l, ok := db.build(t.l)
		if !ok {
			return nil, false
		}
		r, ok := db.build(t.r)
		if !ok {
			return nil, false
		}
		dj := &dJoin{b: t, l: l, r: r}
		db.markShared(dj, t)
		return dj, true
	case *bAggregate:
		if t.static == nil {
			return nil, false
		}
		// Cube-eligible aggregates over pure equi-joins compile to index
		// tiles (O(bins) per selection change) instead of the join+aggregate
		// pair; every other shape keeps the ordinary operators.
		if dc, ok := db.buildCube(t); ok {
			return dc, true
		}
		child, ok := db.build(t.child)
		if !ok {
			return nil, false
		}
		return &dAggregate{b: t, child: child, es: db.es}, true
	case *bDistinct:
		// DISTINCT is the set union of its input with nothing.
		child, ok := db.build(t.child)
		if !ok {
			return nil, false
		}
		return &dSetOp{kind: plan.SetUnion, l: child}, true
	case *bSetOp:
		l, ok := db.build(t.l)
		if !ok {
			return nil, false
		}
		r, ok := db.build(t.r)
		if !ok {
			return nil, false
		}
		return &dSetOp{kind: t.kind, all: t.all, l: l, r: r}, true
	case *bSort:
		return db.buildSort(t, -1)
	case *bLimit:
		// LIMIT over an ORDER BY maintains the k-prefix of that order. A bare
		// LIMIT gets the same treatment over the deterministic full-tuple
		// order: a zero-key sort degrades the order-statistic comparisons to
		// relation.CompareTuples, which is exactly the order bLimit.run pins
		// the full path to.
		s, ok := t.child.(*bSort)
		if !ok {
			s = &bSort{child: t.child, s: &plan.Sort{}, static: []expr.Compiled{}}
		}
		return db.buildSort(s, t.n)
	default:
		return nil, false
	}
}

// markShared checks the join's sides for state-sharing eligibility: a side
// whose subtree reads only shared relations computes a state identical
// across every session's pipeline, so it attaches to the group registry by
// structural fingerprint instead of building its own copy. At most one side
// of a join is ever shared — the writer advances shared states before the
// sessions process a base-delta batch, and the join delta rule needs the
// *other* side's pre-batch state (ΔL ⋈ R_old), which only holds when that
// other side is session-private. The left (build) side is preferred.
func (db *deltaBuilder) markShared(dj *dJoin, t *bJoin) {
	if db.group == nil {
		return
	}
	if fp, reads, ok := sideEligible(db.group, t.l); ok {
		db.clearSharedMarks(dj.l)
		dj.group, dj.lfp, dj.lreads = db.group, fp+sideKey(t.lkRaw, len(t.lks) > 0), reads
		db.shared = append(db.shared, dj)
		return
	}
	if fp, reads, ok := sideEligible(db.group, t.r); ok {
		db.clearSharedMarks(dj.r)
		dj.group, dj.rfp, dj.rreads = db.group, fp+sideKey(t.rkRaw, len(t.rks) > 0), reads
		db.shared = append(db.shared, dj)
	}
}

// clearSharedMarks unmarks shared attachments inside a subtree that is
// about to be shared wholesale: the outer registry entry subsumes the
// inner ones, and separate entries would advance in arbitrary map order —
// an outer side advanced before its inner dependency reads a stale cached
// delta and silently drops the batch. The canonical subtree's inner joins
// keep ordinary private state, driven only through the outer side's feeder.
func (db *deltaBuilder) clearSharedMarks(d dnode) {
	switch t := d.(type) {
	case *dFilter:
		db.clearSharedMarks(t.child)
	case *dProject:
		db.clearSharedMarks(t.child)
	case *dJoin:
		if t.lfp != "" || t.rfp != "" {
			t.group, t.lfp, t.rfp, t.lreads, t.rreads = nil, "", "", nil, nil
			for i, dj := range db.shared {
				if dj == t {
					db.shared = append(db.shared[:i], db.shared[i+1:]...)
					break
				}
			}
		}
		db.clearSharedMarks(t.l)
		db.clearSharedMarks(t.r)
	case *dAggregate:
		db.clearSharedMarks(t.child)
	case *dCube:
		if t.fp != "" {
			t.group, t.fp, t.reads = nil, "", nil
			for i, dc := range db.sharedCubes {
				if dc == t {
					db.sharedCubes = append(db.sharedCubes[:i], db.sharedCubes[i+1:]...)
					break
				}
			}
		}
		db.clearSharedMarks(t.fact)
		db.clearSharedMarks(t.sel)
	case *dSetOp:
		db.clearSharedMarks(t.l)
		db.clearSharedMarks(t.r)
	case *dSort:
		db.clearSharedMarks(t.child)
	}
}

// sideEligible reports whether the subtree reads only shared relations (and
// at least one), returning its fingerprint and read set.
func sideEligible(g *ShareGroup, b bnode) (string, []string, bool) {
	fp, reads, ok := bnodeInfo(b)
	if !ok || len(reads) == 0 {
		return "", nil, false
	}
	for _, r := range reads {
		if !g.IsShared(r) {
			return "", nil, false
		}
	}
	return fp, reads, true
}

// sideKey extends a subtree fingerprint with the owning join's key shape:
// the same subtree indexed by different keys is a different state.
func sideKey(kraw []expr.Expr, keyed bool) string {
	if !keyed {
		return "|cross"
	}
	return "|k:" + exprList(kraw)
}

func (db *deltaBuilder) buildSort(s *bSort, limit int) (dnode, bool) {
	if s.static == nil {
		return nil, false // sort keys need per-run resolution
	}
	child, ok := db.build(s.child)
	if !ok {
		return nil, false
	}
	desc := make([]bool, len(s.s.Keys))
	for i, k := range s.s.Keys {
		desc[i] = k.Desc
	}
	ds := &dSort{b: s, limit: limit, desc: desc, child: child}
	db.sorts = append(db.sorts, ds)
	return ds, true
}

// --- executor entry points ---

// RunStateful primes a delta-safe prepared plan: it drops the operator
// state, applies the priming batch (every scanned relation inserted whole)
// and returns the collected output, which is the full result. It errors for
// plans without a delta pipeline; use RunPrepared for those.
func (ex *Executor) RunStateful(p *Prepared) (*Result, error) {
	if p.droot == nil {
		return nil, fmt.Errorf("exec: plan is not incrementalizable (%s)", p.deltaReason)
	}
	if p.SharesState() {
		// Priming may build and publish shared states; exclude both the
		// writer and other sessions' probes for the duration.
		p.group.mu.Lock()
		defer p.group.mu.Unlock()
	}
	p.ResetState()
	d, err := p.prime(ex)
	if err != nil {
		p.droot.reset()
		return nil, err
	}
	out := relation.New("", p.src.Schema())
	out.Rows = d.Ins
	if p.ordRoot != nil {
		// The collected stream is a bag; the order lives in the tree.
		out.Rows = p.ordRoot.orderedRows()
	}
	p.primed = true
	return &Result{Rel: out}, nil
}

// prime attaches the pipeline's shared states (building the ones nobody
// built yet) and applies the priming batch. Caller holds the group write
// lock when there is shared state.
func (p *Prepared) prime(ex *Executor) (relation.Delta, error) {
	for _, dj := range p.sharedJoins {
		if err := dj.attachShared(ex); err != nil {
			return relation.Delta{}, err
		}
	}
	for _, dc := range p.sharedCubes {
		if err := dc.attachShared(ex); err != nil {
			return relation.Delta{}, err
		}
	}
	d, err := p.collect(deltaIn{cat: ex.Cat})
	if err == nil && len(d.Del) > 0 {
		err = fmt.Errorf("exec: priming an empty pipeline produced %d deletes", len(d.Del))
	}
	return d, err
}

// ApplyDelta propagates per-relation input deltas (keyed by relation name,
// case-insensitive) through a primed pipeline and returns the output delta.
// On error the pipeline state is reset and must be re-primed with
// RunStateful before the next ApplyDelta.
func (ex *Executor) ApplyDelta(p *Prepared, in map[string]relation.Delta) (relation.Delta, error) {
	if p.droot == nil {
		return relation.Delta{}, fmt.Errorf("exec: plan is not incrementalizable (%s)", p.deltaReason)
	}
	if !p.primed {
		return relation.Delta{}, fmt.Errorf("exec: delta pipeline is not primed; call RunStateful first")
	}
	if p.SharesState() {
		// Sessions only probe shared states (their private deltas cannot
		// touch shared inputs, and base-delta fan-outs consume the writer's
		// cached subtree deltas), so concurrent readers are safe.
		p.group.mu.RLock()
		defer p.group.mu.RUnlock()
	}
	out, err := p.collect(deltaIn{rel: in})
	if err != nil {
		p.ResetState()
		return relation.Delta{}, err
	}
	return out, nil
}

// --- scan ---

type dScan struct {
	s *plan.Scan
}

// apply pushes the scanned relation's change: its delta in the batch, or —
// priming — the whole relation. A constant SELECT (no FROM) scans one empty
// row that never changes, so it inserts that row when priming and nothing
// afterwards.
func (d *dScan) apply(in deltaIn, sink deltaSink) error {
	din := in.rel[strings.ToLower(d.s.Name)]
	switch {
	case d.s.Name == "":
		if in.priming() {
			din.Ins = []relation.Tuple{{}}
		}
	case in.priming():
		src, err := in.cat.Resolve(d.s.Name, d.s.Version)
		if err != nil {
			return err
		}
		din.Ins = src.Rows
	}
	return eachSigned(din, func(row relation.Tuple, sign int) error {
		return sink(row, nil, sign)
	})
}

func (d *dScan) reset() {}

// --- filter ---

type dFilter struct {
	b     *bFilter
	child dnode
}

// apply passes through the child rows that satisfy the predicate. The
// predicate is deterministic over the row alone, so a deleted row passes now
// iff it passed when inserted.
func (d *dFilter) apply(in deltaIn, sink deltaSink) error {
	pred := d.b.pred.fn
	if pred == nil {
		return d.child.apply(in, sink)
	}
	if d.b.kern.ok {
		// Column-compare-literal predicate: check the one column without
		// env, closure, or row materialization.
		kern := &d.b.kern
		return d.child.apply(in, func(l, r relation.Tuple, sign int) error {
			if kern.matchVal(splitCol(l, r, kern.idx)) {
				return sink(l, r, sign)
			}
			return nil
		})
	}
	env := &expr.Env{}
	var scratch relation.Tuple
	return d.child.apply(in, func(l, r relation.Tuple, sign int) error {
		env.Row = l
		if r != nil {
			scratch = concatInto(scratch, l, r)
			env.Row = scratch
		}
		v, err := pred(env)
		if err != nil {
			return fmt.Errorf("filter %s: %w", d.b.pred.String(), err)
		}
		if !v.IsNull() && v.Truthy() {
			return sink(l, r, sign)
		}
		return nil
	})
}

func (d *dFilter) reset() { d.child.reset() }

// --- project ---

type dProject struct {
	b     *bProject
	child dnode
}

// apply projects each child row. Deterministic expressions: projecting a
// deleted input row reproduces exactly the output row emitted when it was
// inserted. Bare columns copy by index; a split row is concatenated only
// when some item needs the compiled closure.
func (d *dProject) apply(in deltaIn, sink deltaSink) error {
	fns := d.b.static
	cols := d.b.cols
	env := &expr.Env{}
	var arena valueArena
	var scratch relation.Tuple
	return d.child.apply(in, func(l, r relation.Tuple, sign int) error {
		materialized := r == nil
		env.Row = l
		out := arena.alloc(len(fns))
		for c, fn := range fns {
			if idx := cols[c]; idx >= 0 {
				out[c] = splitCol(l, r, idx)
				continue
			}
			if !materialized {
				scratch = concatInto(scratch, l, r)
				env.Row = scratch
				materialized = true
			}
			v, err := fn(env)
			if err != nil {
				return fmt.Errorf("project %s: %w", d.b.items[c].String(), err)
			}
			out[c] = v
		}
		return sink(out, nil, sign)
	})
}

func (d *dProject) reset() { d.child.reset() }

// --- join ---

// joinSideState indexes one join input's current rows: by equi-key for hash
// joins, or as a plain list for cross/non-equi joins.
type joinSideState struct {
	keyed   bool
	buckets map[uint64][]int32
	keys    []relation.Tuple
	rows    [][]relation.Tuple
	all     []relation.Tuple
}

func newJoinSideState(keyed bool) *joinSideState {
	s := &joinSideState{keyed: keyed}
	if keyed {
		s.buckets = make(map[uint64][]int32)
	}
	return s
}

func (s *joinSideState) keyID(key relation.Tuple, insert bool) int32 {
	h := key.Hash()
	for _, id := range s.buckets[h] {
		if s.keys[id].Equal(key) {
			return id
		}
	}
	if !insert {
		return -1
	}
	id := int32(len(s.keys))
	s.keys = append(s.keys, key.Clone()) // key is a reused scratch tuple
	s.rows = append(s.rows, nil)
	s.buckets[h] = append(s.buckets[h], id)
	return id
}

func (s *joinSideState) add(key, row relation.Tuple) {
	if !s.keyed {
		s.all = append(s.all, row)
		return
	}
	id := s.keyID(key, true)
	s.rows[id] = append(s.rows[id], row)
}

func removeRow(rows []relation.Tuple, row relation.Tuple) ([]relation.Tuple, bool) {
	for i, r := range rows {
		if r.Equal(row) {
			rows[i] = rows[len(rows)-1]
			return rows[:len(rows)-1], true
		}
	}
	return rows, false
}

func (s *joinSideState) remove(key, row relation.Tuple) error {
	if !s.keyed {
		var ok bool
		if s.all, ok = removeRow(s.all, row); !ok {
			return fmt.Errorf("join state: deleted row not present")
		}
		return nil
	}
	id := s.keyID(key, false)
	if id < 0 {
		return fmt.Errorf("join state: deleted row's key not present")
	}
	var ok bool
	if s.rows[id], ok = removeRow(s.rows[id], row); !ok {
		return fmt.Errorf("join state: deleted row not present under its key")
	}
	return nil
}

func (s *joinSideState) matches(key relation.Tuple) []relation.Tuple {
	if !s.keyed {
		return s.all
	}
	id := s.keyID(key, false)
	if id < 0 {
		return nil
	}
	return s.rows[id]
}

type dJoin struct {
	b    *bJoin
	l, r dnode
	ls   *joinSideState
	rs   *joinSideState

	// Shared build sides (multi-client serving). When lfp/rfp is non-empty
	// the corresponding state lives in the group registry: priming attaches
	// to (or builds) the shared entry instead of indexing locally, apply
	// reads the writer's cached subtree delta and never mutates the shared
	// state, and reset leaves both the attachment and the donated canonical
	// subtree untouched. At most one side is shared (see markShared).
	group          *ShareGroup
	lfp, rfp       string
	lreads, rreads []string
	lSide, rSide   *sharedSide
}

// leftState resolves the current left-side state: the (possibly rebuilt)
// shared entry, or the private index.
func (d *dJoin) leftState() *joinSideState {
	if d.lSide != nil {
		return d.lSide.state
	}
	return d.ls
}

func (d *dJoin) rightState() *joinSideState {
	if d.rSide != nil {
		return d.rSide.state
	}
	return d.rs
}

// attachShared binds the join's shared side to its group entry, building
// and publishing the state on first use (donating this pipeline's subtree
// as the canonical feeder the writer will drive). Caller holds the group
// write lock (via RunStateful). Attachments are refcounted once per pipeline
// and survive resets; ReleaseShared drops them.
func (d *dJoin) attachShared(ex *Executor) error {
	if d.lSide != nil || d.rSide != nil {
		return nil // already attached; the shared state is current
	}
	left := d.lfp != ""
	fp, reads, sub, ks, kraw := d.rfp, d.rreads, d.r, d.b.rks, d.b.rkRaw
	if left {
		fp, reads, sub, ks, kraw = d.lfp, d.lreads, d.l, d.b.lks, d.b.lkRaw
	}
	sd := d.group.lookup(fp, reads)
	if sd.built {
		d.group.stats.Reuses++
	} else {
		sd.sub, sd.keys, sd.kraw, sd.keyed = sub, ks, kraw, len(ks) > 0
		if err := sd.build(ex); err != nil {
			return err
		}
		d.group.stats.Builds++
	}
	sd.refs++
	if left {
		d.lSide = sd
	} else {
		d.rSide = sd
	}
	return nil
}

// releaseShared drops this join's shared-state references (session detach).
func (d *dJoin) releaseShared(g *ShareGroup) {
	if d.lSide != nil {
		g.release(d.lSide)
		d.lSide = nil
	}
	if d.rSide != nil {
		g.release(d.rSide)
		d.rSide = nil
	}
}

// apply is the join rule ΔOut = ΔL ⋈ R_old ∪ L_new ⋈ ΔR: the left change
// probes the untouched right state and is folded into the left state, then
// the right change probes the updated left state. Matched pairs ship by
// reference as (left, right) segments, concatenated into scratch only for
// the residual predicate.
//
// A shared side's state is not mutated here — the writer already advanced
// it, once, before fan-out — and its change is the writer's cached subtree
// delta (empty outside a base-data fan-out: private changes cannot touch
// shared inputs). When priming, the shared state is already current, so that
// change is empty too and the output is the private side's rows probing it.
func (d *dJoin) apply(in deltaIn, sink deltaSink) error {
	keyed := len(d.b.lks) > 0
	if d.ls == nil {
		d.ls, d.rs = newJoinSideState(keyed), newJoinSideState(keyed)
	}
	res := d.b.residual.fn
	env := &expr.Env{}
	key := make(relation.Tuple, len(d.b.lks))
	var scratch relation.Tuple
	var arena valueArena

	// one handles one changed row of one side: ship its matches against the
	// other side's current state, then fold it into its own side's state
	// (unless the writer owns that state).
	one := func(left bool, row relation.Tuple, sign int) error {
		ks, kraw, own, other, shared := d.b.rks, d.b.rkRaw, d.rs, d.leftState(), d.rSide != nil
		if left {
			ks, kraw, own, other, shared = d.b.lks, d.b.lkRaw, d.ls, d.rightState(), d.lSide != nil
		}
		if keyed {
			env.Row = row
			null, err := evalKeys(ks, kraw, key, env)
			if err != nil || null {
				return err // NULL keys never matched anything
			}
		}
		for _, orow := range other.matches(key) {
			lpart, rpart := row, orow
			if !left {
				lpart, rpart = orow, row
			}
			if res != nil {
				scratch = concatInto(scratch, lpart, rpart)
				env.Row = scratch
				v, err := res(env)
				if err != nil {
					return fmt.Errorf("join predicate %s: %w", d.b.residual.String(), err)
				}
				if v.IsNull() || !v.Truthy() {
					continue
				}
			}
			if err := sink(lpart, rpart, sign); err != nil {
				return err
			}
		}
		switch {
		case shared:
			return nil
		case sign > 0:
			own.add(key, row)
			return nil
		default:
			return own.remove(key, row)
		}
	}
	feed := func(left bool, child dnode, shared *sharedSide) error {
		if shared == nil {
			return child.apply(in, func(l, r relation.Tuple, sign int) error {
				return one(left, arena.concat(l, r), sign)
			})
		}
		if in.priming() {
			return nil
		}
		return eachSigned(shared.currentDelta(), func(row relation.Tuple, sign int) error {
			return one(left, row, sign)
		})
	}
	if err := feed(true, d.l, d.lSide); err != nil {
		return err
	}
	return feed(false, d.r, d.rSide)
}

func (d *dJoin) reset() {
	d.ls, d.rs = nil, nil
	// Shared attachments (and the canonical subtree donated to the group)
	// survive resets: the shared state tracks the shared base data, which a
	// session-local reset says nothing about.
	if d.lfp == "" {
		d.l.reset()
	}
	if d.rfp == "" {
		d.r.reset()
	}
}

// --- aggregate ---

type dgroup struct {
	key     relation.Tuple
	rep     relation.Tuple // any member; outputs only read grouping columns
	rows    int64
	states  []*aggState
	emitted relation.Tuple // last output row shipped downstream; nil if none
	touched bool
}

type dAggregate struct {
	b        *bAggregate
	child    dnode
	groups   map[uint64][]*dgroup
	g1       map[relation.Value]*dgroup // single-column keys: direct map, no tuple hash
	needVals []bool
	aggs     []relation.Value
	touched  []*dgroup  // groups the apply in flight changed, in first-touch order
	es       *ExecStats // counters shared with the Prepared
}

func (d *dAggregate) prog() *aggProgram { return d.b.static }

// start creates the empty state.
func (d *dAggregate) start() {
	prog := d.prog()
	d.groups = make(map[uint64][]*dgroup)
	d.aggs = make([]relation.Value, len(prog.specs))
	d.needVals = make([]bool, len(prog.specs))
	for si := range prog.specs {
		name := prog.specs[si].agg.Name
		d.needVals[si] = prog.specs[si].agg.Distinct || name == "min" || name == "max"
	}
	switch len(prog.groupBy) {
	case 0:
		// A global aggregate has exactly one group, even over zero rows, and
		// owes its row from the start: the first flush ships it.
		d.touch(d.newGroup(relation.Tuple(nil).Hash(), nil))
	case 1:
		d.g1 = make(map[relation.Value]*dgroup)
	}
}

func (d *dAggregate) touch(grp *dgroup) {
	if !grp.touched {
		grp.touched = true
		d.touched = append(d.touched, grp)
	}
}

// newGroup registers an empty group (no representative yet).
func (d *dAggregate) newGroup(h uint64, key relation.Tuple) *dgroup {
	prog := d.prog()
	grp := &dgroup{states: make([]*aggState, len(prog.specs))}
	if key != nil {
		grp.key = key.Clone()
	}
	for si := range grp.states {
		grp.states[si] = newDeltaAggState(prog.specs[si].agg.Distinct, d.needVals[si])
	}
	if d.g1 == nil { // single-key groups register in g1 (caller indexes it)
		d.groups[h] = append(d.groups[h], grp)
	}
	return grp
}

func (d *dAggregate) findGroup(h uint64, key relation.Tuple) *dgroup {
	for _, cand := range d.groups[h] {
		if cand.key.Equal(key) {
			return cand
		}
	}
	return nil
}

func (d *dAggregate) dropGroup(h uint64, grp *dgroup) {
	if d.g1 != nil {
		delete(d.g1, grp.key[0].Key())
		return
	}
	bucket := d.groups[h]
	for i, cand := range bucket {
		if cand == grp {
			bucket[i] = bucket[len(bucket)-1]
			d.groups[h] = bucket[:len(bucket)-1]
			return
		}
	}
}

// accumulate feeds one whole input row into its group with the given sign.
// Bare column grouping keys and aggregate arguments bypass the compiled
// closures (prog.groupCols / spec.argCol) — the inner loop is a slice index.
// scratch marks a row the caller will overwrite: a group born from it keeps
// a copy as its representative.
func (d *dAggregate) accumulate(env *expr.Env, key relation.Tuple, row relation.Tuple, sign int, scratch bool) error {
	prog := d.prog()
	env.Row = row
	for gi, g := range prog.groupBy {
		if idx := prog.groupCols[gi]; idx >= 0 {
			key[gi] = row[idx]
			continue
		}
		v, err := g(env)
		if err != nil {
			return fmt.Errorf("group by %s: %w", prog.groupStr[gi], err)
		}
		key[gi] = v
	}
	grp, born, err := d.locate(key, sign)
	if err != nil {
		return err
	}
	if born {
		if grp.rep = row; scratch {
			grp.rep = row.Clone()
		}
	}
	grp.rows += int64(sign)
	for si := range prog.specs {
		sp := &prog.specs[si]
		if sp.arg == nil { // count(*)
			continue
		}
		var v relation.Value
		if sp.argCol >= 0 {
			v = row[sp.argCol]
		} else {
			var err error
			if v, err = sp.arg(env); err != nil {
				return fmt.Errorf("aggregate %s: %w", sp.str, err)
			}
		}
		if sign > 0 {
			grp.states[si].add(v)
		} else if err := grp.states[si].remove(v); err != nil {
			return err
		}
	}
	return nil
}

// locate returns the group for key, marked touched. An insert naming a key
// never seen creates the group; born tells the caller to give it a
// representative row.
func (d *dAggregate) locate(key relation.Tuple, sign int) (grp *dgroup, born bool, err error) {
	if d.g1 != nil {
		// One grouping column: index the canonical value directly instead
		// of hashing and probing a keyed bucket — the delta path's hottest
		// lookup (Value.Key is the same normalization Tuple.Hash applies).
		k := key[0].Key()
		if grp = d.g1[k]; grp == nil && sign > 0 {
			grp, born = d.newGroup(0, key), true
			d.g1[k] = grp
		}
	} else {
		h := key.Hash()
		if grp = d.findGroup(h, key); grp == nil && sign > 0 {
			grp, born = d.newGroup(h, key), true
		}
	}
	if grp == nil {
		return nil, false, fmt.Errorf("aggregate state: delete for a group never seen")
	}
	d.touch(grp)
	return grp, born, nil
}

// output computes the group's current output row, nil when HAVING drops it.
func (d *dAggregate) output(env *expr.Env, grp *dgroup) (relation.Tuple, error) {
	prog := d.prog()
	env.Row = grp.rep
	if grp.rows == 0 {
		// A global group over zero rows has no representative: recomputation
		// would evaluate columns against a nil row (all NULL).
		env.Row = nil
	}
	for si := range prog.specs {
		sp := &prog.specs[si]
		d.aggs[si] = grp.states[si].result(sp.agg.Name, grp.rows, sp.agg.Arg == nil)
	}
	env.Aggs = d.aggs
	defer func() { env.Aggs = nil }()
	if prog.having != nil {
		hv, err := prog.having(env)
		if err != nil {
			return nil, fmt.Errorf("having: %w", err)
		}
		if hv.IsNull() || !hv.Truthy() {
			return nil, nil
		}
	}
	t := make(relation.Tuple, len(prog.items))
	for c, it := range prog.items {
		v, err := it(env)
		if err != nil {
			return nil, fmt.Errorf("aggregate output %s: %w", prog.itemStr[c], err)
		}
		t[c] = v
	}
	return t, nil
}

// apply folds the child's stream straight into the group accumulators — no
// intermediate row is materialized — and then ships the changed groups'
// output rows. When every grouping key and aggregate argument is a bare
// column (prog.allBare), split rows are consumed by index without ever
// concatenating; otherwise the segments are materialized into one reused
// scratch.
//
// Interleaving safety: the child delivers inserts and deletes in its own
// order (a join: left inserts, left deletes, right inserts, right deletes).
// Within one apply every delete references the before-state (a delta's
// deletes remove rows that exist), so each group's pending deletes never
// exceed its pre-apply row count — no interleaving can drive a count
// negative or delete from a group never seen.
func (d *dAggregate) apply(in deltaIn, sink deltaSink) error {
	if d.groups == nil {
		d.start()
	}
	prog := d.prog()
	env := &expr.Env{}
	key := make(relation.Tuple, len(prog.groupBy))
	var scratch relation.Tuple
	var n int64
	err := d.child.apply(in, func(l, r relation.Tuple, sign int) error {
		n++
		switch {
		case r == nil:
			return d.accumulate(env, key, l, sign, false)
		case prog.allBare:
			return d.accumulateSplit(key, l, r, sign)
		default:
			scratch = concatInto(scratch, l, r)
			return d.accumulate(env, key, scratch, sign, true)
		}
	})
	if err != nil {
		return err
	}
	if n > 0 && !in.priming() {
		atomic.AddInt64(&d.es.FusedApplies, 1)
		atomic.AddInt64(&d.es.BatchRows, n)
	}
	return d.flush(env, sink)
}

// flush turns the groups touched by one apply into the output delta,
// retiring emptied groups and re-emitting changed outputs.
func (d *dAggregate) flush(env *expr.Env, sink deltaSink) error {
	nk := len(d.prog().groupBy)
	touched := d.touched
	d.touched = d.touched[:0]
	for _, grp := range touched {
		grp.touched = false
		if grp.rows < 0 {
			return fmt.Errorf("aggregate state: group row count went negative")
		}
		var t relation.Tuple
		if grp.rows == 0 && nk > 0 {
			d.dropGroup(grp.key.Hash(), grp)
		} else {
			var err error
			if t, err = d.output(env, grp); err != nil {
				return err
			}
		}
		if err := reemit(sink, &grp.emitted, t); err != nil {
			return err
		}
	}
	return nil
}

// reemit ships a group's change of output row — delete the one last
// emitted, insert the current one; nil is "no row" (dropped by HAVING, or
// the group is gone) — and remembers the current one. An unchanged row
// ships nothing and keeps the old tuple.
func reemit(sink deltaSink, emitted *relation.Tuple, now relation.Tuple) error {
	old := *emitted
	if (old == nil && now == nil) || (old != nil && now != nil && old.Equal(now)) {
		return nil
	}
	if old != nil {
		if err := sink(old, nil, -1); err != nil {
			return err
		}
	}
	if now != nil {
		if err := sink(now, nil, +1); err != nil {
			return err
		}
	}
	*emitted = now
	return nil
}

func (d *dAggregate) reset() {
	d.groups, d.g1, d.touched = nil, nil, nil
	d.child.reset()
}

// --- set operations ---

// dSetOp maintains per-tuple counts on each side. Output membership is a
// function of the two counts: union (set) lc+rc > 0, minus lc > 0 ∧ rc = 0,
// intersect lc > 0 ∧ rc > 0. UNION ALL is stateless concatenation; DISTINCT
// is the set union with no right side.
type dSetOp struct {
	kind plan.SetKind
	all  bool
	l, r dnode // r is nil for DISTINCT
	tab  *tupleTable
	lc   []int64
	rc   []int64

	// was holds, for the tuples the apply in flight touched, 1 + their
	// membership before the batch (0 = untouched); touched lists them in
	// first-touch order.
	was     []uint8
	touched []int32
}

func (d *dSetOp) member(id int32) bool {
	switch d.kind {
	case plan.SetUnion:
		return d.lc[id]+d.rc[id] > 0
	case plan.SetMinus:
		return d.lc[id] > 0 && d.rc[id] == 0
	default:
		return d.lc[id] > 0 && d.rc[id] > 0
	}
}

// apply bumps the per-side counts of every changed tuple and then ships the
// tuples whose membership differs across the batch. Comparing before and
// after, rather than at every bump, is what lets the sides stream in any
// order: a tuple that enters and leaves within one batch ships nothing.
func (d *dSetOp) apply(in deltaIn, sink deltaSink) error {
	if d.kind == plan.SetUnion && d.all {
		if err := d.l.apply(in, sink); err != nil {
			return err
		}
		return d.r.apply(in, sink)
	}
	if d.tab == nil {
		d.tab = newTupleTable(0)
	}
	var arena valueArena
	bump := func(counts *[]int64) deltaSink {
		return func(l, r relation.Tuple, sign int) error {
			n, dup := d.tab.getOrInsert(arena.concat(l, r))
			id := int32(n)
			if !dup {
				d.lc, d.rc, d.was = append(d.lc, 0), append(d.rc, 0), append(d.was, 0)
			}
			if d.was[id] == 0 {
				d.was[id] = 1
				if d.member(id) {
					d.was[id] = 2
				}
				d.touched = append(d.touched, id)
			}
			if (*counts)[id] += int64(sign); (*counts)[id] < 0 {
				return fmt.Errorf("set-op state: count went negative")
			}
			return nil
		}
	}
	if err := d.l.apply(in, bump(&d.lc)); err != nil {
		return err
	}
	if d.r != nil {
		if err := d.r.apply(in, bump(&d.rc)); err != nil {
			return err
		}
	}
	touched := d.touched
	d.touched = d.touched[:0]
	for _, id := range touched {
		before := d.was[id] == 2
		d.was[id] = 0
		if after := d.member(id); after != before {
			sign := +1
			if before {
				sign = -1
			}
			if err := sink(d.tab.keys[id], nil, sign); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *dSetOp) reset() {
	d.tab, d.lc, d.rc, d.was, d.touched = nil, nil, nil, nil, nil
	d.l.reset()
	if d.r != nil {
		d.r.reset()
	}
}

// --- sort / top-k ---

// TopKStats counts the order-statistic subsystem's work across a pipeline's
// dSort operators. TreeRows is a gauge (rows currently held, duplicates
// counted); PrefixEmits and Evictions are counters drained by
// Prepared.TakeTopKStats.
type TopKStats struct {
	TreeRows    int64 // rows currently held in order-statistic trees
	PrefixEmits int64 // delta rows emitted for maintained ORDER BY+LIMIT prefixes
	Evictions   int64 // prefix exits of rows still in the tree (displaced, not deleted)
}

// dSort maintains an order-statistic tree over its child's full output.
// With limit < 0 it is a stateful ORDER BY: the output delta is the input
// delta (sorting is bag-identity; the order lives in orderedRows, which the
// engine uses to materialize the view). With limit >= 0 it is a top-k
// operator: the output is the maintained k-prefix, and each delta
// application emits the prefix's own delta — a row entering the top-k
// evicts the current k-th, a deletion inside the prefix promotes the
// successor — so a one-row input change ships ~2 output rows.
type dSort struct {
	b     *bSort
	limit int    // -1: full ORDER BY; >= 0: maintained prefix length
	desc  []bool // per-key DESC flags
	child dnode

	tree    *ordStat
	emitted []relation.Tuple // current prefix shipped downstream (limit >= 0)
	stats   TopKStats        // cumulative counters, drained by TakeTopKStats
}

// evalSortKeys fills the scratch key tuple for one child row.
func (d *dSort) evalSortKeys(env *expr.Env, row relation.Tuple, key relation.Tuple) error {
	env.Row = row
	for i, fn := range d.b.static {
		v, err := fn(env)
		if err != nil {
			return fmt.Errorf("order by %s: %w", d.b.keys[i].String(), err)
		}
		key[i] = v
	}
	return nil
}

// prefixLen is the current output length: everything for ORDER BY, min(k,
// rows) for top-k.
func (d *dSort) prefixLen() int {
	if d.limit < 0 {
		return int(d.tree.Len())
	}
	if int64(d.limit) > d.tree.Len() {
		return int(d.tree.Len())
	}
	return d.limit
}

// orderedRows returns the operator's current output in maintained order: the
// engine overwrites the materialized view's rows with it after each delta
// application, so ordered views stay ordered without re-sorting.
func (d *dSort) orderedRows() []relation.Tuple {
	if d.limit >= 0 {
		return append([]relation.Tuple(nil), d.emitted...)
	}
	return d.tree.InOrder()
}

// apply folds the child's stream into the order-statistic tree. A pure
// ORDER BY is bag-identity, so its rows pass straight through; a top-k ships
// the prefix's own change once the batch is in — Consolidate cancels the
// rows present in both the old and new prefix, leaving the boundary
// crossings (entries, evictions, promotions). O(k), not O(n).
func (d *dSort) apply(in deltaIn, sink deltaSink) error {
	if d.tree == nil {
		d.tree = newOrdStat(d.desc)
	}
	env := &expr.Env{}
	key := make(relation.Tuple, len(d.b.static))
	var arena valueArena
	changed := false
	err := d.child.apply(in, func(l, r relation.Tuple, sign int) error {
		row := arena.concat(l, r)
		if err := d.evalSortKeys(env, row, key); err != nil {
			return err
		}
		changed = true
		if sign > 0 {
			d.tree.Insert(key, row)
		} else if err := d.tree.Delete(key, row); err != nil {
			return err
		}
		if d.limit < 0 {
			return sink(row, nil, sign)
		}
		return nil
	})
	if err != nil || d.limit < 0 || !changed {
		return err
	}
	next := d.tree.Prefix(d.prefixLen())
	out := relation.Delta{Ins: next, Del: d.emitted}.Consolidate()
	d.emitted = next
	if !in.priming() {
		d.stats.PrefixEmits += int64(out.Len())
	}
	for _, row := range out.Del {
		// A prefix exit whose row is still in the tree was displaced by a
		// better row (or by the prefix shrinking past it), not deleted.
		if err := d.evalSortKeys(env, row, key); err != nil {
			return err
		}
		if d.tree.Contains(key, row) {
			d.stats.Evictions++
		}
	}
	return eachSigned(out, func(row relation.Tuple, sign int) error {
		return sink(row, nil, sign)
	})
}

func (d *dSort) reset() {
	d.tree, d.emitted = nil, nil
	d.child.reset()
}

// sortRows sorts rows in place into the operator's total order (keys with
// DESC negation, full-tuple tie-break). It needs no tree state: the engine
// uses it to re-establish an ordered view's row order after the store
// restored contents behind the pipeline's back (rollback, undo), where the
// restored bag is exact but bag-delta reconstruction loses row order.
func (d *dSort) sortRows(rows []relation.Tuple) error {
	env := &expr.Env{}
	type keyed struct{ row, keys relation.Tuple }
	items := make([]keyed, len(rows))
	var arena valueArena
	arena.expect(len(rows) * len(d.b.static))
	for i, row := range rows {
		kt := arena.alloc(len(d.b.static))
		if err := d.evalSortKeys(env, row, kt); err != nil {
			return err
		}
		items[i] = keyed{row: row, keys: kt}
	}
	sort.SliceStable(items, func(i, j int) bool {
		return compareKeyedRows(items[i].keys, items[j].keys, d.desc, items[i].row, items[j].row) < 0
	})
	for i := range items {
		rows[i] = items[i].row
	}
	return nil
}
