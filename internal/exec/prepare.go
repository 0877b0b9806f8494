package exec

// Plan binding. Prepare walks a logical plan once and produces a tree of
// bound operators whose expressions are compiled against the operators'
// static input schemas (plan.Node.Schema). Expressions free of subqueries
// and unresolved IN sources — the interaction hot path — compile exactly
// once, at prepare time; the rest are re-resolved against the live catalog
// and bound at the start of each execution (still once per execution, never
// per row).

import (
	"fmt"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
)

// Prepared is a plan compiled against its input schemas, ready to run many
// times. It holds per-operator scratch buffers, so a Prepared must not be
// executed concurrently with itself.
//
// Delta-safe plans (plan.DeltaSafety) additionally carry a stateful delta
// pipeline: RunStateful primes it (the delta rule applied from empty state
// to the whole catalog), after which ApplyDelta turns input deltas into
// output deltas at cost proportional to the change.
type Prepared struct {
	root bnode
	src  plan.Node

	droot       dnode // stateful delta pipeline; nil when not delta-safe
	col         collector
	push        deltaSink // col.push, bound once
	deltaReason string    // why droot is nil
	primed      bool      // whether droot holds state consistent with the catalog

	dsorts  []*dSort // order-statistic operators inside droot, in build order
	ordRoot *dSort   // droot itself when the plan's root is ORDER BY [LIMIT]

	// group/sharedJoins/sharedCubes carry the multi-client state-sharing
	// attachment: joins (and cube tile stores) inside droot whose shared
	// state lives in the group registry (PrepareShared). RunStateful/
	// ApplyDelta take the group lock around pipeline work when either list
	// is non-empty; ReleaseShared drops the refcounted attachments when the
	// owning session detaches.
	group       *ShareGroup
	sharedJoins []*dJoin
	sharedCubes []*dCube

	// cubes lists every data-cube operator in droot (shared or private), for
	// stats draining and tile-memory accounting.
	cubes []*dCube

	// estats collects the aggregate-stream counters for the whole delta tree.
	// Atomic access: shared-side subtrees advance under the group lock while
	// TakeExecStats drains under the engine lock.
	estats *ExecStats
}

// Plan returns the underlying logical plan (EXPLAIN-style output).
func (p *Prepared) Plan() plan.Node { return p.src }

// DeltaSafe reports whether the plan admits incremental delta propagation.
func (p *Prepared) DeltaSafe() bool { return p.droot != nil }

// DeltaReason explains why the plan is not delta-safe ("" when it is).
func (p *Prepared) DeltaReason() string { return p.deltaReason }

// Primed reports whether the delta pipeline holds state consistent with the
// catalog (set by RunStateful, cleared by ResetState and by errors).
func (p *Prepared) Primed() bool { return p.primed }

// ResetState drops all delta-pipeline operator state, keeping the compiled
// evaluators. Call it when the catalog changes behind the pipeline's back
// (rollback, undo, version restore); the next RunStateful re-primes.
func (p *Prepared) ResetState() {
	p.primed = false
	if p.droot != nil {
		p.droot.reset()
	}
}

// bnode is one bound operator.
type bnode interface {
	run(ex *Executor) (*Result, error)
}

// Prepare binds a logical plan for repeated execution. Binding never
// consults relation contents, only schemas, so a Prepared stays valid as
// data changes; it is invalidated only when a referenced schema changes
// (view redefinition — the engine handles that).
func Prepare(n plan.Node, funcs *expr.Registry) (*Prepared, error) {
	return PrepareShared(n, funcs, nil)
}

// PrepareShared is Prepare for pipelines hosted behind a multi-client
// server: join build sides whose input subtree reads only the group's
// shared relations attach to the group's refcounted state registry instead
// of indexing their own copy. A nil group is plain single-tenant Prepare.
func PrepareShared(n plan.Node, funcs *expr.Registry, group *ShareGroup) (*Prepared, error) {
	root, err := prep(n, funcs)
	if err != nil {
		return nil, err
	}
	p := &Prepared{root: root, src: n}
	if ok, why := plan.DeltaSafety(n); !ok {
		p.deltaReason = why
		return p, nil
	}
	db := &deltaBuilder{group: group, es: &ExecStats{}}
	if droot, ok := db.build(root); ok {
		p.droot = droot
		p.push = p.col.push
		p.estats = db.es
		p.dsorts = db.sorts
		p.group = group
		p.sharedJoins = db.shared
		p.sharedCubes = db.sharedCubes
		p.cubes = db.cubes
		if ds, ok := droot.(*dSort); ok {
			p.ordRoot = ds
		}
	} else {
		p.deltaReason = "operator compiled without static evaluators"
	}
	return p, nil
}

// SharesState reports whether the delta pipeline attaches to shared
// build-side or cube-tile states (only possible for PrepareShared
// pipelines).
func (p *Prepared) SharesState() bool {
	return len(p.sharedJoins) > 0 || len(p.sharedCubes) > 0
}

// ReleaseShared drops the pipeline's refcounted shared-state attachments;
// states whose last pipeline released are evicted from the group. Call when
// the owning session detaches or the plan is invalidated. Safe on
// single-tenant pipelines (no-op).
func (p *Prepared) ReleaseShared() {
	if p.group == nil {
		return
	}
	for _, dj := range p.sharedJoins {
		dj.releaseShared(p.group)
	}
	for _, dc := range p.sharedCubes {
		dc.releaseShared(p.group)
	}
}

// HasCube reports whether the delta pipeline answers some aggregate through
// data-cube index tiles.
func (p *Prepared) HasCube() bool { return len(p.cubes) > 0 }

// CubeBytes reports the private tile memory held by the pipeline's cube
// operators (shared tiles are accounted by the group's ApproxBytes).
func (p *Prepared) CubeBytes() int64 {
	var b int64
	for _, dc := range p.cubes {
		b += dc.tileBytes()
	}
	return b
}

// TakeCubeStats drains the cube counters accumulated since the last call
// (Builds, Hits, BinsAnswered). Fallbacks and the TileBytes gauge are
// engine-level and stay zero here.
func (p *Prepared) TakeCubeStats() CubeStats {
	var out CubeStats
	for _, dc := range p.cubes {
		out.Builds += dc.stats.Builds
		out.Hits += dc.stats.Hits
		out.BinsAnswered += dc.stats.BinsAnswered
		dc.stats.Builds, dc.stats.Hits, dc.stats.BinsAnswered = 0, 0, 0
	}
	return out
}

// Ordered reports whether the delta pipeline's root is an ORDER BY (with or
// without LIMIT): its maintained output has a meaningful row order, and
// callers patching a materialized relation with ApplyDelta's output should
// replace the rows with OrderedRows afterwards.
func (p *Prepared) Ordered() bool { return p.ordRoot != nil }

// OrderedRows returns the pipeline's current output in maintained order (a
// fresh slice). Only meaningful when Ordered() and the pipeline is primed.
func (p *Prepared) OrderedRows() []relation.Tuple {
	if p.ordRoot == nil || !p.primed {
		return nil
	}
	return p.ordRoot.orderedRows()
}

// OrderRows sorts rows in place into an Ordered() plan's output order
// (ORDER BY keys, full-tuple tie-break), without touching pipeline state.
// The engine uses it to re-establish row order after rollback/undo/version
// restore rewrote an ordered view's contents through bag-level deltas (the
// restored bag is exact; only the presentation order is lost), and for
// versioned reads of ordered views. No-op for unordered plans.
func (p *Prepared) OrderRows(rows []relation.Tuple) error {
	if p.ordRoot == nil {
		return nil
	}
	return p.ordRoot.sortRows(rows)
}

// TakeExecStats drains the aggregate-stream counters accumulated since the
// last call. Zero-value result means the plan has no delta-maintained
// aggregates or nothing happened.
func (p *Prepared) TakeExecStats() ExecStats {
	if p.estats == nil {
		return ExecStats{}
	}
	return ExecStats{
		BatchRows:    atomic.SwapInt64(&p.estats.BatchRows, 0),
		FusedApplies: atomic.SwapInt64(&p.estats.FusedApplies, 0),
	}
}

// TakeTopKStats drains the order-statistic counters accumulated since the
// last call (PrefixEmits, Evictions) and snapshots the current tree sizes
// (TreeRows). Zero-value result means the plan has no ordered operators or
// nothing happened.
func (p *Prepared) TakeTopKStats() TopKStats {
	var out TopKStats
	for _, ds := range p.dsorts {
		out.PrefixEmits += ds.stats.PrefixEmits
		out.Evictions += ds.stats.Evictions
		ds.stats.PrefixEmits, ds.stats.Evictions = 0, 0
		if ds.tree != nil {
			out.TreeRows += ds.tree.Len()
		}
	}
	return out
}

func prep(n plan.Node, funcs *expr.Registry) (bnode, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return &bScan{s: t}, nil
	case *plan.Filter:
		child, err := prep(t.Child, funcs)
		if err != nil {
			return nil, err
		}
		b := &bFilter{
			child: child,
			pred:  bindExpr(t.Pred, t.Child.Schema(), funcs),
		}
		b.kern = buildFilterKernel(b.pred)
		return b, nil
	case *plan.Project:
		return prepProject(t, t.Schema(), funcs)
	case *plan.Join:
		return prepJoin(t, funcs)
	case *plan.Aggregate:
		return prepAggregate(t, funcs)
	case *plan.Sort:
		child, err := prep(t.Child, funcs)
		if err != nil {
			return nil, err
		}
		b := &bSort{child: child, s: t}
		for _, k := range t.Keys {
			b.keys = append(b.keys, bindExpr(k.Expr, t.Child.Schema(), funcs))
		}
		b.static = staticFns(b.keys)
		return b, nil
	case *plan.Limit:
		child, err := prep(t.Child, funcs)
		if err != nil {
			return nil, err
		}
		return &bLimit{child: child, n: t.N}, nil
	case *plan.Distinct:
		child, err := prep(t.Child, funcs)
		if err != nil {
			return nil, err
		}
		return &bDistinct{child: child}, nil
	case *plan.SetOp:
		l, err := prep(t.L, funcs)
		if err != nil {
			return nil, err
		}
		r, err := prep(t.R, funcs)
		if err != nil {
			return nil, err
		}
		return &bSetOp{l: l, r: r, kind: t.Kind, all: t.All}, nil
	default:
		// aliasProject and future wrappers expose Project behaviour via the
		// generic interfaces; the wrapper's (qualified) schema is the output.
		if pr, ok := asProject(n); ok {
			return prepProject(pr, n.Schema(), funcs)
		}
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// asProject extracts an embedded Project from wrapper nodes.
func asProject(n plan.Node) (*plan.Project, bool) {
	type projector interface{ AsProject() *plan.Project }
	if p, ok := n.(projector); ok {
		return p.AsProject(), true
	}
	return nil, false
}

// bexpr is one bound expression. fn is non-nil when the expression compiled
// statically at prepare time; otherwise raw is re-resolved against the live
// catalog and bound once per execution via get.
type bexpr struct {
	raw    expr.Expr
	schema relation.Schema
	fn     expr.Compiled
}

// bindExpr compiles e against the schema, deferring to execution time when
// the expression needs subquery/IN resolution first. A nil e stays nil.
func bindExpr(e expr.Expr, schema relation.Schema, funcs *expr.Registry) bexpr {
	be := bexpr{raw: e, schema: schema}
	if e != nil && !expr.NeedsResolution(e) {
		be.fn = expr.Bind(e, &expr.BindContext{Schema: schema, Funcs: funcs})
	}
	return be
}

// get returns the evaluator for this execution: the statically compiled one,
// or a fresh bind of the runtime-resolved expression. Nil for a nil raw.
func (be *bexpr) get(ex *Executor) (expr.Compiled, error) {
	if be.fn != nil || be.raw == nil {
		return be.fn, nil
	}
	resolved, err := ex.resolveExpr(be.raw)
	if err != nil {
		return nil, err
	}
	return expr.Bind(resolved, &expr.BindContext{Schema: be.schema, Funcs: ex.Funcs}), nil
}

// String renders the bound expression for error messages.
func (be *bexpr) String() string {
	if be.raw == nil {
		return "<nil>"
	}
	return be.raw.String()
}

func prepProject(p *plan.Project, outSchema relation.Schema, funcs *expr.Registry) (bnode, error) {
	child, err := prep(p.Child, funcs)
	if err != nil {
		return nil, err
	}
	b := &bProject{child: child, outSchema: outSchema}
	childSchema := p.Child.Schema()
	for _, it := range p.Items {
		b.items = append(b.items, bindExpr(it.Expr, childSchema, funcs))
		b.cols = append(b.cols, bareColumn(it.Expr, childSchema))
	}
	b.static = staticFns(b.items)
	return b, nil
}

// bareColumn returns the input index of a plain column expression, -1 for
// anything else — the monomorphic fast path copies the Value by index
// instead of dispatching through the compiled closure.
func bareColumn(e expr.Expr, schema relation.Schema) int {
	c, ok := e.(*expr.Column)
	if !ok {
		return -1
	}
	idx, err := schema.IndexErr(c.Qualifier, c.Name)
	if err != nil {
		return -1
	}
	return idx
}

// staticFns returns the compiled evaluators when every bexpr bound at
// prepare time, nil if any needs per-execution resolution.
func staticFns(items []bexpr) []expr.Compiled {
	fns := make([]expr.Compiled, len(items))
	for i := range items {
		if items[i].fn == nil {
			return nil
		}
		fns[i] = items[i].fn
	}
	return fns
}

func prepJoin(j *plan.Join, funcs *expr.Registry) (bnode, error) {
	l, err := prep(j.L, funcs)
	if err != nil {
		return nil, err
	}
	r, err := prep(j.R, funcs)
	if err != nil {
		return nil, err
	}
	lSch, rSch := j.L.Schema(), j.R.Schema()
	outSch := lSch.Concat(rSch)
	// Key conjuncts never need subquery/IN resolution (SplitEquiJoin sends
	// those to the residual), so splitting the raw predicate here and
	// compiling keys eagerly is safe; the residual re-resolves per execution
	// when it must.
	leftKeys, rightKeys, residual := plan.SplitEquiJoin(j.Pred, lSch, rSch)
	b := &bJoin{
		l: l, r: r,
		outSchema: outSch,
		lw:        lSch.Len(),
		rw:        rSch.Len(),
		lkRaw:     leftKeys,
		rkRaw:     rightKeys,
		residual:  bindExpr(residual, outSch, funcs),
	}
	lbc := &expr.BindContext{Schema: lSch, Funcs: funcs}
	rbc := &expr.BindContext{Schema: rSch, Funcs: funcs}
	for i := range leftKeys {
		b.lks = append(b.lks, expr.Bind(leftKeys[i], lbc))
		b.rks = append(b.rks, expr.Bind(rightKeys[i], rbc))
	}
	return b, nil
}

func prepAggregate(a *plan.Aggregate, funcs *expr.Registry) (bnode, error) {
	child, err := prep(a.Child, funcs)
	if err != nil {
		return nil, err
	}
	b := &bAggregate{child: child, a: a, inSchema: a.Child.Schema()}
	static := true
	for _, g := range a.GroupBy {
		if expr.NeedsResolution(g) {
			static = false
		}
	}
	for _, it := range a.Items {
		if expr.NeedsResolution(it.Expr) {
			static = false
		}
	}
	if a.Having != nil && expr.NeedsResolution(a.Having) {
		static = false
	}
	if static {
		b.static = compileAgg(a.GroupBy, a.Items, a.Having, b.inSchema, funcs)
	}
	return b, nil
}

// baggSpec is one distinct aggregate call within an Aggregate node, with its
// argument compiled (nil for count(*)).
type baggSpec struct {
	agg    *expr.Agg
	arg    expr.Compiled
	str    string
	argCol int // input index when the argument is a bare column, else -1
}

// aggProgram is a fully bound aggregation: group keys, aggregate argument
// evaluators, and output/having evaluators that read per-group aggregate
// results from Env.Aggs slots.
type aggProgram struct {
	groupBy   []expr.Compiled
	groupCols []int // per key: input column index for bare columns, else -1
	groupStr  []string
	specs     []baggSpec
	items     []expr.Compiled
	itemStr   []string
	having    expr.Compiled
	allBare   bool // every group key and aggregate argument is a bare column
}

// compileAgg lays out an aggregation program against already-resolved
// expressions: distinct aggregate calls (by rendered form) get result slots,
// and outputs/HAVING compile with an AggSlot resolver that reads them.
func compileAgg(groupBy []expr.Expr, items []plan.ProjItem, having expr.Expr, schema relation.Schema, funcs *expr.Registry) *aggProgram {
	prog := &aggProgram{}
	rowBC := &expr.BindContext{Schema: schema, Funcs: funcs}
	for _, g := range groupBy {
		prog.groupBy = append(prog.groupBy, expr.Bind(g, rowBC))
		prog.groupCols = append(prog.groupCols, bareColumn(g, schema))
		prog.groupStr = append(prog.groupStr, g.String())
	}
	specIdx := map[string]int{}
	collect := func(e expr.Expr) {
		for _, ag := range expr.Aggregates(e) {
			k := ag.String()
			if _, ok := specIdx[k]; !ok {
				specIdx[k] = len(prog.specs)
				var arg expr.Compiled
				argCol := -1
				if ag.Arg != nil {
					arg = expr.Bind(ag.Arg, rowBC)
					argCol = bareColumn(ag.Arg, schema)
				}
				prog.specs = append(prog.specs, baggSpec{agg: ag, arg: arg, str: k, argCol: argCol})
			}
		}
	}
	for _, it := range items {
		collect(it.Expr)
	}
	collect(having)
	groupBC := &expr.BindContext{Schema: schema, Funcs: funcs, AggSlot: func(ag *expr.Agg) (int, bool) {
		i, ok := specIdx[ag.String()]
		return i, ok
	}}
	for _, it := range items {
		prog.items = append(prog.items, expr.Bind(it.Expr, groupBC))
		prog.itemStr = append(prog.itemStr, it.Expr.String())
	}
	prog.having = expr.Bind(having, groupBC)
	prog.allBare = true
	for _, gc := range prog.groupCols {
		if gc < 0 {
			prog.allBare = false
		}
	}
	for _, sp := range prog.specs {
		if sp.arg != nil && sp.argCol < 0 {
			prog.allBare = false
		}
	}
	return prog
}
