// Package exec evaluates logical plans over materialized relations. It
// implements the Executor of the DVMS architecture (Fig 3): hash joins, hash
// aggregation, set operations, sorting, subquery resolution, and — when
// enabled — row-level lineage capture that powers the provenance subsystem
// (§3.1).
//
// Execution is two-phase. Prepare binds a plan once — every expression is
// compiled to a closure-based evaluator with positional column access
// (expr.Bind), hash-joinable key conjuncts are split out, and aggregate
// programs are laid out — and the resulting Prepared plan is run many times.
// The engine caches one Prepared per view and reuses it across every
// recompute of the interaction loop; ad-hoc queries prepare and run in one
// call. PERFORMANCE.md describes the stateful executor built on it.
package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

// Lineage records, for one output row, the indices of contributing rows in
// each scanned input relation.
type Lineage map[string][]int

// merge unions two lineage maps into a fresh one.
func mergeLineage(a, b Lineage) Lineage {
	out := make(Lineage, len(a)+len(b))
	for k, v := range a {
		out[k] = append(out[k], v...)
	}
	for k, v := range b {
		out[k] = append(out[k], v...)
	}
	return out
}

// Result is a materialized operator output. Lin is non-nil only when the
// executor captured lineage; it is parallel to Rel.Rows.
type Result struct {
	Rel *relation.Relation
	Lin []Lineage
}

// Executor runs plans against a catalog. A zero CaptureLineage executor
// skips all lineage bookkeeping (the common, fast path).
type Executor struct {
	Cat            plan.Catalog
	Funcs          *expr.Registry
	CaptureLineage bool
}

// New returns an executor over the catalog with the default function
// registry.
func New(cat plan.Catalog) *Executor {
	return &Executor{Cat: cat, Funcs: expr.NewRegistry()}
}

// RunQuery plans, optimizes, prepares, and executes a parsed query.
func (ex *Executor) RunQuery(q parser.QueryExpr) (*Result, error) {
	p, err := plan.Build(q, ex.Cat)
	if err != nil {
		return nil, err
	}
	p = plan.Optimize(p, ex.Funcs)
	return ex.Run(p)
}

// Run prepares and executes a logical plan in one call. Callers that execute
// the same plan repeatedly should Prepare once and use RunPrepared.
func (ex *Executor) Run(n plan.Node) (*Result, error) {
	p, err := Prepare(n, ex.Funcs)
	if err != nil {
		return nil, err
	}
	return ex.RunPrepared(p)
}

// RunPrepared executes a bound plan against the executor's catalog. A
// Prepared holds per-operator scratch state and must not be run from
// multiple goroutines concurrently.
func (ex *Executor) RunPrepared(p *Prepared) (*Result, error) {
	return p.root.run(ex)
}

// --- subquery / IN-source resolution ---

// resolveExpr materializes scalar subqueries and IN sources in the
// expression by recursively executing them, returning a rewritten copy. A
// nil expression resolves to nil.
func (ex *Executor) resolveExpr(e expr.Expr) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	var firstErr error
	out := expr.Transform(e, func(x expr.Expr) expr.Expr {
		if firstErr != nil {
			return x
		}
		switch n := x.(type) {
		case *expr.Subquery:
			v, err := ex.scalarSubquery(n)
			if err != nil {
				firstErr = err
				return x
			}
			return expr.Literal(v)
		case *expr.In:
			src, err := ex.resolveInSource(n.Source)
			if err != nil {
				firstErr = err
				return x
			}
			return &expr.In{X: n.X, Source: src, Negate: n.Negate}
		default:
			return x
		}
	})
	return out, firstErr
}

func (ex *Executor) resolveItems(items []plan.ProjItem) ([]plan.ProjItem, error) {
	out := make([]plan.ProjItem, len(items))
	for i, it := range items {
		e, err := ex.resolveExpr(it.Expr)
		if err != nil {
			return nil, err
		}
		out[i] = plan.ProjItem{Expr: e, Name: it.Name}
	}
	return out, nil
}

// scalarSubquery executes an uncorrelated scalar subquery: one column, at
// most one row; zero rows yield NULL.
func (ex *Executor) scalarSubquery(s *expr.Subquery) (relation.Value, error) {
	q, ok := s.Query.(parser.QueryExpr)
	if !ok {
		return relation.Null(), fmt.Errorf("scalar subquery holds unexpected payload %T", s.Query)
	}
	// Plan and compile once per expression tree and concurrent user; later
	// runs re-execute a cached Prepared against the live catalog (scans
	// resolve names at run time, so data changes are always seen).
	prep, _ := s.Prep.Get().(*Prepared)
	if prep == nil {
		p, err := plan.Build(q, ex.Cat)
		if err != nil {
			return relation.Null(), fmt.Errorf("scalar subquery: %w", err)
		}
		p = plan.Optimize(p, ex.Funcs)
		if prep, err = Prepare(p, ex.Funcs); err != nil {
			return relation.Null(), fmt.Errorf("scalar subquery: %w", err)
		}
	}
	defer s.Prep.Put(prep)
	// Subqueries never need lineage of their own.
	sub := &Executor{Cat: ex.Cat, Funcs: ex.Funcs}
	res, err := sub.RunPrepared(prep)
	if err != nil {
		return relation.Null(), fmt.Errorf("scalar subquery: %w", err)
	}
	if res.Rel.Schema.Len() < 1 {
		return relation.Null(), fmt.Errorf("scalar subquery returns no columns")
	}
	switch len(res.Rel.Rows) {
	case 0:
		return relation.Null(), nil
	case 1:
		return res.Rel.Rows[0][0], nil
	default:
		return relation.Null(), fmt.Errorf("scalar subquery returned %d rows", len(res.Rel.Rows))
	}
}

// resolveInSource materializes an IN source into a ValueSet.
func (ex *Executor) resolveInSource(src expr.InSource) (expr.InSource, error) {
	switch s := src.(type) {
	case *expr.SetSource:
		return s, nil
	case *expr.RelationSource:
		rel, err := ex.Cat.Resolve(s.Name, s.Version)
		if err != nil {
			return nil, fmt.Errorf("IN %s: %w", s.Name, err)
		}
		if rel.Schema.Len() < 1 {
			return nil, fmt.Errorf("IN %s: relation has no columns", s.Name)
		}
		set := expr.NewValueSet()
		for _, row := range rel.Rows {
			set.Add(row[0])
		}
		return &expr.SetSource{Set: set}, nil
	case *expr.Subquery:
		q, ok := s.Query.(parser.QueryExpr)
		if !ok {
			return nil, fmt.Errorf("IN subquery holds unexpected payload %T", s.Query)
		}
		sub := &Executor{Cat: ex.Cat, Funcs: ex.Funcs}
		res, err := sub.RunQuery(q)
		if err != nil {
			return nil, fmt.Errorf("IN subquery: %w", err)
		}
		if res.Rel.Schema.Len() < 1 {
			return nil, fmt.Errorf("IN subquery returns no columns")
		}
		set := expr.NewValueSet()
		for _, row := range res.Rel.Rows {
			set.Add(row[0])
		}
		return &expr.SetSource{Set: set}, nil
	default:
		return nil, fmt.Errorf("unknown IN source %T", src)
	}
}

// StripQualifiers returns a copy of the relation whose schema drops
// qualifiers; the engine stores view results unqualified so later FROM
// clauses can re-qualify them under fresh aliases.
func StripQualifiers(r *relation.Relation) *relation.Relation {
	cols := make([]relation.Column, r.Schema.Len())
	for i, c := range r.Schema.Cols {
		cols[i] = relation.Col(c.Name, c.Kind)
	}
	return &relation.Relation{Name: r.Name, Schema: relation.NewSchema(cols...), Rows: r.Rows}
}
