// Package expr implements DeVIL's typed expression trees: column references,
// literals, operators with SQL three-valued logic, scalar UDF calls,
// aggregates, IN predicates, CASE, and scalar subqueries.
//
// Expressions are shared by the parser (which builds them), the planner
// (which analyzes and rewrites them), the executor (which evaluates them per
// row), and the event recognizer (which evaluates them against event
// bindings). All evaluation goes through Bind (compile.go), which resolves
// columns against a schema once and returns a closure.
package expr

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/relation"
)

// Expr is a node in an expression tree.
type Expr interface {
	// String renders DeVIL-ish syntax, used in plans and error messages.
	String() string
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators in precedence groups (low to high): OR, AND; comparisons;
// additive; multiplicative; string concat shares additive precedence.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
)

var binOpNames = map[BinOp]string{
	OpOr: "OR", OpAnd: "AND", OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpMod: "%", OpConcat: "||",
}

// String returns the operator's surface syntax.
func (o BinOp) String() string { return binOpNames[o] }

// Lit is a literal constant.
type Lit struct {
	V relation.Value
}

// Literal wraps a value as an expression.
func Literal(v relation.Value) *Lit { return &Lit{V: v} }

// String renders the literal; strings are single-quoted.
func (l *Lit) String() string {
	if l.V.Kind() == relation.KindString {
		return "'" + strings.ReplaceAll(l.V.AsString(), "'", "''") + "'"
	}
	return l.V.String()
}

// Column references a (possibly qualified) column of the current row.
type Column struct {
	Qualifier string
	Name      string
}

// String renders "qualifier.name".
func (c *Column) String() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// evalArith implements numeric arithmetic. Integer inputs keep integer
// results for + - * and %, while / always produces a float (pixel math in
// DeVIL programs expects real division).
func evalArith(op BinOp, lv, rv relation.Value) (relation.Value, error) {
	if lv.Kind() == relation.KindInt && rv.Kind() == relation.KindInt && op != OpDiv {
		a, _ := lv.AsInt()
		c, _ := rv.AsInt()
		switch op {
		case OpAdd:
			return relation.Int(a + c), nil
		case OpSub:
			return relation.Int(a - c), nil
		case OpMul:
			return relation.Int(a * c), nil
		case OpMod:
			if c == 0 {
				return relation.Null(), fmt.Errorf("modulo by zero")
			}
			return relation.Int(a % c), nil
		}
	}
	a, aok := lv.AsFloat()
	c, cok := rv.AsFloat()
	if !aok || !cok {
		return relation.Null(), fmt.Errorf("non-numeric operand to %s: %s, %s", op, lv, rv)
	}
	switch op {
	case OpAdd:
		return relation.Float(a + c), nil
	case OpSub:
		return relation.Float(a - c), nil
	case OpMul:
		return relation.Float(a * c), nil
	case OpDiv:
		if c == 0 {
			return relation.Null(), fmt.Errorf("division by zero")
		}
		return relation.Float(a / c), nil
	case OpMod:
		if c == 0 {
			return relation.Null(), fmt.Errorf("modulo by zero")
		}
		return relation.Float(math.Mod(a, c)), nil
	default:
		return relation.Null(), fmt.Errorf("unsupported arithmetic operator %s", op)
	}
}

// String renders the operation parenthesized.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	OpNeg UnOp = iota // arithmetic negation
	OpNot             // boolean NOT
)

// String returns the operator's surface syntax.
func (o UnOp) String() string {
	if o == OpNot {
		return "NOT"
	}
	return "-"
}

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	X  Expr
}

// String renders "-x" or "NOT x".
func (u *Unary) String() string {
	if u.Op == OpNeg {
		return "-" + u.X.String()
	}
	return "NOT " + u.X.String()
}

// Call invokes a scalar UDF from the registry.
type Call struct {
	Name string
	Args []Expr
}

// String renders "name(arg, ...)".
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Agg is an aggregate call placeholder (COUNT/SUM/AVG/MIN/MAX). The executor
// evaluates aggregates during grouping; binding one anywhere else yields an
// evaluator that fails, which catches aggregates in illegal positions (e.g.
// WHERE clauses).
type Agg struct {
	Name     string // lowercase: count, sum, avg, min, max
	Arg      Expr   // nil for COUNT(*)
	Distinct bool
}

// String renders "sum(x)" or "count(*)".
func (a *Agg) String() string {
	inner := "*"
	if a.Arg != nil {
		inner = a.Arg.String()
	}
	if a.Distinct {
		inner = "DISTINCT " + inner
	}
	return a.Name + "(" + inner + ")"
}

// IsNull tests a value for NULL (IS NULL / IS NOT NULL).
type IsNull struct {
	X      Expr
	Negate bool
}

// String renders "x IS [NOT] NULL".
func (n *IsNull) String() string {
	if n.Negate {
		return n.X.String() + " IS NOT NULL"
	}
	return n.X.String() + " IS NULL"
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // nil means NULL
}

// When is one WHEN cond THEN result arm.
type When struct {
	Cond   Expr
	Result Expr
}

// String renders the CASE expression.
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.String())
		b.WriteString(" THEN ")
		b.WriteString(w.Result.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// ValueSet is a materialized set of values with SQL key normalization,
// produced by resolving IN subqueries and IN-relation predicates.
type ValueSet struct {
	m       map[relation.Value]struct{}
	hasNull bool
}

// NewValueSet builds a set from values.
func NewValueSet(vals ...relation.Value) *ValueSet {
	s := &ValueSet{m: make(map[relation.Value]struct{}, len(vals))}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// Add inserts a value.
func (s *ValueSet) Add(v relation.Value) {
	if v.IsNull() {
		s.hasNull = true
		return
	}
	s.m[v.Key()] = struct{}{}
}

// Contains reports membership under SQL equality.
func (s *ValueSet) Contains(v relation.Value) bool {
	_, ok := s.m[v.Key()]
	return ok
}

// Len returns the number of distinct non-null values.
func (s *ValueSet) Len() int { return len(s.m) }

// HasNull reports whether the source contained NULLs (needed for SQL's
// NOT IN semantics).
func (s *ValueSet) HasNull() bool { return s.hasNull }

// In tests membership of X in a source. The parser emits In nodes whose
// Source is a *Subquery or *RelationSource; the executor resolves those to a
// *ValueSet before row iteration (see ResolveSources).
type In struct {
	X      Expr
	Source InSource
	Negate bool
}

// InSource is the right-hand side of an IN predicate.
type InSource interface{ inSource() }

// Subquery wraps a parsed query used as an IN source or a scalar expression.
// Query is `any` to avoid a dependency cycle with the parser; the executor
// type-asserts it. Prep caches the executor's compiled forms of Query (`any`
// for the same cycle reason): subquery-parameterized views re-resolve on
// every run, and without the cache each run re-plans and re-compiles the
// subquery from scratch. A compiled form runs on one goroutine at a time,
// while a parsed program is shared by every session of a server — hence a
// pool: an evaluation takes a form out (compiling one when none is idle) and
// puts it back when done. The cache lives and dies with the expression tree —
// plan invalidation drops the tree and the cache with it.
type Subquery struct {
	Query any
	Prep  sync.Pool
}

func (*Subquery) inSource() {}

// String marks the subquery opaquely.
func (s *Subquery) String() string { return "(SELECT ...)" }

// RelationSource is "x IN SomeRelation", reading the single column (or the
// first column) of the named relation/view, possibly at a past version.
type RelationSource struct {
	Name    string
	Version relation.VersionRef
}

func (*RelationSource) inSource() {}

// SetSource is a resolved, materialized IN source.
type SetSource struct {
	Set *ValueSet
}

func (*SetSource) inSource() {}

// String renders "x [NOT] IN src".
func (in *In) String() string {
	op := " IN "
	if in.Negate {
		op = " NOT IN "
	}
	switch s := in.Source.(type) {
	case *RelationSource:
		return in.X.String() + op + s.Name + s.Version.String()
	case *SetSource:
		return in.X.String() + op + fmt.Sprintf("{%d values}", s.Set.Len())
	default:
		return in.X.String() + op + "(SELECT ...)"
	}
}
