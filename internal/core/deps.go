package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/render"
)

// dep is one relation referenced by a view definition, with the version it
// is read at. Live deps (current version, or tnow which changes per event)
// drive recomputation and participate in cycle detection; frozen deps
// (@vnow-i, i ≥ 1) read committed history and legally break recursion, the
// exact mechanism DeVIL 3 relies on.
type dep struct {
	name    string
	key     string // lowercase name: the key of changes and the store
	version relation.VersionRef
}

// live reports whether changes to the referenced relation must trigger
// recomputation of the referencing view.
func (d dep) live() bool {
	switch d.version.Kind {
	case relation.VersionCurrent:
		return true
	case relation.VersionVNow:
		return d.version.Offset == 0
	case relation.VersionTNow:
		// tnow snapshots advance with every event, so the view must
		// recompute per event, but it never reads the value being
		// recomputed — it is not a recursion edge.
		return true
	default:
		return false
	}
}

// cyclic reports whether the dep participates in recursion detection: only
// reads of the live value do.
func (d dep) cyclic() bool {
	return d.version.Kind == relation.VersionCurrent ||
		(d.version.Kind == relation.VersionVNow && d.version.Offset == 0)
}

// queryDeps collects every relation referenced by a query: FROM clauses,
// IN sources, scalar subqueries, and TRACE inputs/targets.
func queryDeps(q parser.QueryExpr) []dep {
	var out []dep
	collectQueryDeps(q, &out)
	// dedupe, keeping the "most live" version per name (a view reading
	// both R and R@vnow-1 must still recompute when R changes).
	byName := map[string]dep{}
	var order []string
	for _, d := range out {
		k := strings.ToLower(d.name)
		d.key = k
		prev, ok := byName[k]
		if !ok {
			byName[k] = d
			order = append(order, k)
			continue
		}
		if d.live() && !prev.live() {
			byName[k] = d
		}
	}
	sort.Strings(order)
	dedup := make([]dep, 0, len(order))
	for _, k := range order {
		dedup = append(dedup, byName[k])
	}
	return dedup
}

func collectQueryDeps(q parser.QueryExpr, out *[]dep) {
	switch n := q.(type) {
	case *parser.SelectStmt:
		for _, ref := range n.From {
			collectRefDeps(ref, out)
		}
		collectExprDeps(n.Where, out)
		for _, it := range n.Items {
			collectExprDeps(it.Expr, out)
		}
		for _, g := range n.GroupBy {
			collectExprDeps(g, out)
		}
		collectExprDeps(n.Having, out)
		for _, o := range n.OrderBy {
			collectExprDeps(o.Expr, out)
		}
	case *parser.SetOp:
		collectQueryDeps(n.L, out)
		collectQueryDeps(n.R, out)
	case *parser.RenderStmt:
		collectQueryDeps(n.Inner, out)
	case *parser.TraceStmt:
		for _, ref := range n.From {
			collectRefDeps(ref, out)
		}
		collectExprDeps(n.Where, out)
		*out = append(*out, dep{name: n.To})
	case *parser.RelRefQuery:
		collectRefDeps(n.Ref, out)
	}
}

func collectRefDeps(ref parser.TableRef, out *[]dep) {
	if ref.Sub != nil {
		collectQueryDeps(ref.Sub, out)
		return
	}
	*out = append(*out, dep{name: ref.Name, version: ref.Version})
}

func collectExprDeps(e expr.Expr, out *[]dep) {
	if e == nil {
		return
	}
	expr.Walk(e, func(x expr.Expr) bool {
		switch n := x.(type) {
		case *expr.In:
			switch src := n.Source.(type) {
			case *expr.RelationSource:
				*out = append(*out, dep{name: src.Name, version: src.Version})
			case *expr.Subquery:
				if q, ok := src.Query.(parser.QueryExpr); ok {
					collectQueryDeps(q, out)
				}
			}
		case *expr.Subquery:
			if q, ok := n.Query.(parser.QueryExpr); ok {
				collectQueryDeps(q, out)
			}
		}
		return true
	})
}

// view is one DeVIL assignment statement: a named, materialized view with
// its definition and dependency list.
type view struct {
	name  string
	key   string // lowercase name, the key of e.views, changes and the store
	query parser.QueryExpr
	deps  []dep
	// renderAs is non-nil when the definition wraps render(): the view's
	// result is also rasterized into the engine image.
	renderAs *renderSink
	// isTrace marks BACKWARD/FORWARD TRACE definitions, evaluated by the
	// provenance tracer instead of the query executor.
	isTrace bool
	// prepared is the view's bound plan: built, optimized, and compiled once
	// (on first recompute after definition), then reused across every
	// recompute of the interaction loop. Schemas are the only thing binding
	// depends on, so the engine drops all cached plans whenever any view is
	// (re)defined; data changes never invalidate it.
	prepared *exec.Prepared
}

// renderSink describes one render() call: which mark type to use (empty =
// infer from schema), and the marks binding resolved for the sink's current
// schema (bindSink).
type renderSink struct {
	markType string
	bind     *render.Binding
}

// sinkList lists the render sinks in definition order, the order they paint
// in. Computed on (re)definition only.
func sinkList(views map[string]*view, order []string) []*view {
	var out []*view
	for _, name := range order {
		if v := views[strings.ToLower(name)]; v.renderAs != nil {
			out = append(out, v)
		}
	}
	return out
}

// topoOrder sorts view names so every view appears after the views it
// (cyclically) depends on. Frozen deps are excluded, so DeVIL 3-style mutual
// references through @vnow-1 order correctly. Returns an error naming the
// cycle if recursion through live references exists — the static analysis
// rule of §2.1.2 ("DeVIL disallows recursive statements").
func topoOrder(views map[string]*view, order []string) ([]string, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(views))
	var out []string
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		k := strings.ToLower(name)
		v, ok := views[k]
		if !ok {
			return nil // base relation
		}
		switch color[k] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("recursive view definition: %s (use @vnow-i or @tnow-j to reference past versions)",
				strings.Join(append(path, v.name), " -> "))
		}
		color[k] = gray
		for _, d := range v.deps {
			if !d.cyclic() {
				continue
			}
			if strings.EqualFold(d.name, v.name) {
				return fmt.Errorf("view %s references itself at the current version; use @vnow-i or @tnow-j", v.name)
			}
			if err := visit(d.name, append(path, v.name)); err != nil {
				return err
			}
		}
		color[k] = black
		out = append(out, v.name)
		return nil
	}
	for _, name := range order {
		if err := visit(name, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dependents inverts the dependency graph over live edges: for each relation
// name (lowercase), the views that must recompute when it changes.
func dependents(views map[string]*view) map[string][]string {
	out := map[string][]string{}
	for _, v := range views {
		for _, d := range v.deps {
			if !d.live() {
				continue
			}
			out[d.key] = append(out[d.key], v.name)
		}
	}
	for k := range out {
		sort.Strings(out[k])
	}
	return out
}

// levelPlan groups the topological order into dependency levels, the unit
// refresh runs at once (refreshLevel). A view's level is 0 when it shares a
// live edge with no earlier view of the order, otherwise 1 + the highest
// level among the earlier views it reads live or that read it live. Live
// @tnow reads are not recursion edges, so topoOrder leaves them unordered;
// counting them in both directions keeps every pair of views that read one
// another in the serial order, which makes any order over the levels, and
// any order inside one, compute what the topological walk computes. Each
// level lists its views in topological order. Computed on (re)definition
// only: refresh walks the result and allocates nothing for it.
func levelPlan(views map[string]*view, topo []string, deps map[string][]string) [][]*view {
	level := make(map[string]int, len(topo)) // lowercase name → level, earlier views only
	var out [][]*view
	for _, name := range topo {
		k := strings.ToLower(name)
		v := views[k]
		lv := 0
		for _, d := range v.deps {
			if l, ok := level[d.key]; ok && d.live() {
				lv = max(lv, l+1)
			}
		}
		for _, r := range deps[k] {
			if l, ok := level[strings.ToLower(r)]; ok {
				lv = max(lv, l+1)
			}
		}
		level[k] = lv
		if lv == len(out) {
			out = append(out, nil)
		}
		out[lv] = append(out[lv], v)
	}
	return out
}
