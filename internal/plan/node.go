// Package plan builds logical query plans from DeVIL ASTs and applies the
// rule-based rewrites of the paper's offline optimizer (Fig 3): constant
// folding, predicate pushdown through joins, and join-input ordering.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/relation"
)

// Catalog resolves relation names (at a version) to their current contents.
// The engine's storage manager implements it; tests use in-memory maps.
type Catalog interface {
	Resolve(name string, v relation.VersionRef) (*relation.Relation, error)
}

// Node is a logical plan operator.
type Node interface {
	// Schema is the operator's output schema, with qualifiers where rows
	// are still bound to named inputs.
	Schema() relation.Schema
	// Children returns input operators, left to right.
	Children() []Node
	// String renders one plan line (children not included).
	String() string
}

// Scan reads a named relation, optionally at a past version, binding its
// columns under Alias.
type Scan struct {
	Name    string
	Alias   string
	Version relation.VersionRef
	Sch     relation.Schema
	// EstRows is the catalog's row count at plan time; the optimizer uses
	// it to order join inputs.
	EstRows int
}

// Schema returns the scan's qualified schema.
func (s *Scan) Schema() relation.Schema { return s.Sch }

// Children returns nil; scans are leaves.
func (s *Scan) Children() []Node { return nil }

// String renders "Scan rel@version AS alias".
func (s *Scan) String() string {
	out := "Scan " + s.Name + s.Version.String()
	if s.Alias != "" && s.Alias != s.Name {
		out += " AS " + s.Alias
	}
	return fmt.Sprintf("%s (~%d rows)", out, s.EstRows)
}

// Filter keeps rows whose predicate is truthy.
type Filter struct {
	Child Node
	Pred  expr.Expr
}

// Schema passes the child schema through.
func (f *Filter) Schema() relation.Schema { return f.Child.Schema() }

// Children returns the single input.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// String renders the predicate.
func (f *Filter) String() string { return "Filter " + f.Pred.String() }

// ProjItem is one output column of a projection or aggregation.
type ProjItem struct {
	Expr expr.Expr
	Name string
}

// Project computes output columns; the output schema is unqualified.
type Project struct {
	Child Node
	Items []ProjItem
}

// Schema derives unqualified output columns from the items.
func (p *Project) Schema() relation.Schema {
	cols := make([]relation.Column, len(p.Items))
	for i, it := range p.Items {
		cols[i] = relation.Col(it.Name, relation.KindNull)
	}
	return relation.NewSchema(cols...)
}

// Children returns the single input.
func (p *Project) Children() []Node { return []Node{p.Child} }

// String lists the projected expressions.
func (p *Project) String() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.Expr.String() + " AS " + it.Name
	}
	return "Project " + strings.Join(parts, ", ")
}

// Join combines two inputs; Pred may be nil (cross product). The executor
// extracts equi-conjuncts from Pred to run a hash join.
type Join struct {
	L, R Node
	Pred expr.Expr
}

// Schema concatenates the input schemas.
func (j *Join) Schema() relation.Schema { return j.L.Schema().Concat(j.R.Schema()) }

// Children returns both inputs.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// String renders the join predicate if any.
func (j *Join) String() string {
	if j.Pred == nil {
		return "CrossJoin"
	}
	return "Join ON " + j.Pred.String()
}

// SplitEquiJoin splits a join predicate into hash keys and a residual: each
// equality conjunct whose sides each read one input becomes a key pair
// (leftKeys[i] over ls equals rightKeys[i] over rs, operands swapped when
// written right-to-left), and every other conjunct goes to the residual.
// The executor compiles its join keys from this split and the cube planner
// decides tile eligibility from it, so both see the same keys.
func SplitEquiJoin(pred expr.Expr, ls, rs relation.Schema) (leftKeys, rightKeys []expr.Expr, residual expr.Expr) {
	if pred == nil {
		return nil, nil, nil
	}
	var rest []expr.Expr
	for _, c := range expr.Conjuncts(pred) {
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			rest = append(rest, c)
			continue
		}
		switch {
		case keyBindsIn(b.L, ls) && keyBindsIn(b.R, rs):
			leftKeys = append(leftKeys, b.L)
			rightKeys = append(rightKeys, b.R)
		case keyBindsIn(b.R, ls) && keyBindsIn(b.L, rs):
			leftKeys = append(leftKeys, b.R)
			rightKeys = append(rightKeys, b.L)
		default:
			rest = append(rest, c)
		}
	}
	return leftKeys, rightKeys, expr.AndAll(rest)
}

// keyBindsIn reports whether e can be a join key over s: it reads at least
// one column, every column resolves within s, and it contains no subqueries,
// aggregates or unresolved IN sources. Keys are compiled at prepare time,
// before per-execution resolution can happen, so anything that needs it
// must land in the residual.
func keyBindsIn(e expr.Expr, s relation.Schema) bool {
	ok, hasCol := true, false
	expr.Walk(e, func(x expr.Expr) bool {
		switch c := x.(type) {
		case *expr.Column:
			hasCol = true
			if _, err := s.IndexErr(c.Qualifier, c.Name); err != nil {
				ok = false
				return false
			}
		case *expr.In:
			if _, resolved := c.Source.(*expr.SetSource); !resolved {
				ok = false
				return false
			}
		case *expr.Subquery, *expr.Agg:
			ok = false
			return false
		}
		return ok
	})
	return ok && hasCol
}

// Aggregate groups rows by GroupBy expressions and computes Items, which may
// contain aggregate calls; Having filters groups.
type Aggregate struct {
	Child   Node
	GroupBy []expr.Expr
	Items   []ProjItem
	Having  expr.Expr
}

// Schema derives unqualified output columns from the items.
func (a *Aggregate) Schema() relation.Schema {
	cols := make([]relation.Column, len(a.Items))
	for i, it := range a.Items {
		cols[i] = relation.Col(it.Name, relation.KindNull)
	}
	return relation.NewSchema(cols...)
}

// Children returns the single input.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// String renders group keys and outputs.
func (a *Aggregate) String() string {
	keys := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		keys[i] = g.String()
	}
	return fmt.Sprintf("Aggregate by [%s] -> %d items", strings.Join(keys, ", "), len(a.Items))
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort orders rows by keys.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Schema passes the child schema through.
func (s *Sort) Schema() relation.Schema { return s.Child.Schema() }

// Children returns the single input.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// String renders the sort keys.
func (s *Sort) String() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Limit keeps the first N rows.
type Limit struct {
	Child Node
	N     int
}

// Schema passes the child schema through.
func (l *Limit) Schema() relation.Schema { return l.Child.Schema() }

// Children returns the single input.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// String renders the limit count.
func (l *Limit) String() string { return fmt.Sprintf("Limit %d", l.N) }

// Distinct removes duplicate rows.
type Distinct struct {
	Child Node
}

// Schema passes the child schema through.
func (d *Distinct) Schema() relation.Schema { return d.Child.Schema() }

// Children returns the single input.
func (d *Distinct) Children() []Node { return []Node{d.Child} }

// String names the operator.
func (d *Distinct) String() string { return "Distinct" }

// SetKind enumerates set operators at the plan level.
type SetKind uint8

// Plan-level set operations.
const (
	SetUnion SetKind = iota
	SetMinus
	SetIntersect
)

// SetOp combines two union-compatible inputs.
type SetOp struct {
	Kind SetKind
	All  bool
	L, R Node
}

// Schema is the left input's schema (names from the left branch, as in SQL).
func (s *SetOp) Schema() relation.Schema { return s.L.Schema() }

// Children returns both inputs.
func (s *SetOp) Children() []Node { return []Node{s.L, s.R} }

// String names the operation.
func (s *SetOp) String() string {
	switch s.Kind {
	case SetUnion:
		if s.All {
			return "UnionAll"
		}
		return "Union"
	case SetMinus:
		return "Minus"
	default:
		return "Intersect"
	}
}

// Format renders the whole plan tree indented, for EXPLAIN-style output.
func Format(n Node) string {
	var b strings.Builder
	var rec func(Node, int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}
