// Package expr implements DeVIL's typed expression trees: column references,
// literals, operators with SQL three-valued logic, scalar UDF calls,
// aggregates, IN predicates, CASE, and scalar subqueries.
//
// Expressions are shared by the parser (which builds them), the planner
// (which analyzes and rewrites them), the executor (which evaluates them per
// row), and the event recognizer (which evaluates them against event
// bindings).
package expr

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/relation"
)

// RowEnv supplies column values during evaluation. Implementations exist in
// the executor (tuple-backed) and the event recognizer (event-backed).
type RowEnv interface {
	Lookup(qualifier, name string) (relation.Value, bool)
}

// Context carries everything Eval needs. Funcs must be non-nil if the
// expression contains calls; Row may be nil for constant expressions.
type Context struct {
	Row   RowEnv
	Funcs *Registry
}

// Expr is a node in an expression tree.
type Expr interface {
	// Eval computes the expression's value for one row.
	Eval(ctx *Context) (relation.Value, error)
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

// Eval returns the constant.
func (l *Lit) Eval(*Context) (relation.Value, error) { return l.V, nil }

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

// Eval looks the column up in the row environment.
func (c *Column) Eval(ctx *Context) (relation.Value, error) {
	if ctx.Row == nil {
		return relation.Null(), fmt.Errorf("column %s referenced outside a row context", c.String())
	}
	v, ok := ctx.Row.Lookup(c.Qualifier, c.Name)
	if !ok {
		return relation.Null(), fmt.Errorf("unknown column %s", c.String())
	}
	return v, nil
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

// Eval implements SQL semantics: NULL propagation for arithmetic and
// comparison, three-valued logic for AND/OR.
func (b *Binary) Eval(ctx *Context) (relation.Value, error) {
	if b.Op == OpAnd || b.Op == OpOr {
		return b.evalLogic(ctx)
	}
	lv, err := b.L.Eval(ctx)
	if err != nil {
		return relation.Null(), err
	}
	rv, err := b.R.Eval(ctx)
	if err != nil {
		return relation.Null(), err
	}
	if lv.IsNull() || rv.IsNull() {
		return relation.Null(), nil
	}
	switch b.Op {
	case OpEq:
		return relation.Bool(lv.Compare(rv) == 0), nil
	case OpNe:
		return relation.Bool(lv.Compare(rv) != 0), nil
	case OpLt:
		return relation.Bool(lv.Compare(rv) < 0), nil
	case OpLe:
		return relation.Bool(lv.Compare(rv) <= 0), nil
	case OpGt:
		return relation.Bool(lv.Compare(rv) > 0), nil
	case OpGe:
		return relation.Bool(lv.Compare(rv) >= 0), nil
	case OpConcat:
		return relation.String(lv.AsString() + rv.AsString()), nil
	default:
		return evalArith(b.Op, lv, rv)
	}
}

// evalLogic implements three-valued AND/OR with short-circuiting.
func (b *Binary) evalLogic(ctx *Context) (relation.Value, error) {
	lv, err := b.L.Eval(ctx)
	if err != nil {
		return relation.Null(), err
	}
	isAnd := b.Op == OpAnd
	if !lv.IsNull() {
		lt := lv.Truthy()
		if isAnd && !lt {
			return relation.Bool(false), nil
		}
		if !isAnd && lt {
			return relation.Bool(true), nil
		}
	}
	rv, err := b.R.Eval(ctx)
	if err != nil {
		return relation.Null(), err
	}
	if !rv.IsNull() {
		rt := rv.Truthy()
		if isAnd && !rt {
			return relation.Bool(false), nil
		}
		if !isAnd && rt {
			return relation.Bool(true), nil
		}
	}
	if lv.IsNull() || rv.IsNull() {
		return relation.Null(), nil
	}
	return relation.Bool(isAnd), nil
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

// Eval negates numerically or logically; NULL propagates.
func (u *Unary) Eval(ctx *Context) (relation.Value, error) {
	v, err := u.X.Eval(ctx)
	if err != nil || v.IsNull() {
		return relation.Null(), err
	}
	switch u.Op {
	case OpNeg:
		switch v.Kind() {
		case relation.KindInt:
			n, _ := v.AsInt()
			return relation.Int(-n), nil
		default:
			f, ok := v.AsFloat()
			if !ok {
				return relation.Null(), fmt.Errorf("cannot negate %s", v)
			}
			return relation.Float(-f), nil
		}
	case OpNot:
		return relation.Bool(!v.Truthy()), nil
	default:
		return relation.Null(), fmt.Errorf("unsupported unary operator")
	}
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

// Eval resolves the function and applies it to the evaluated arguments.
func (c *Call) Eval(ctx *Context) (relation.Value, error) {
	if ctx.Funcs == nil {
		return relation.Null(), fmt.Errorf("no function registry for call to %s", c.Name)
	}
	fn, ok := ctx.Funcs.Lookup(c.Name)
	if !ok {
		return relation.Null(), fmt.Errorf("unknown function %s", c.Name)
	}
	args := make([]relation.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(ctx)
		if err != nil {
			return relation.Null(), err
		}
		args[i] = v
	}
	return fn.Apply(args)
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
// evaluates aggregates during grouping; calling Eval directly is an error,
// which also catches aggregates in illegal positions (e.g. WHERE clauses).
type Agg struct {
	Name     string // lowercase: count, sum, avg, min, max
	Arg      Expr   // nil for COUNT(*)
	Distinct bool
}

// Eval reports misuse: aggregates only have meaning inside GROUP BY plans.
func (a *Agg) Eval(*Context) (relation.Value, error) {
	return relation.Null(), fmt.Errorf("aggregate %s used outside of an aggregation context", a.String())
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

// Eval returns a boolean, never NULL.
func (n *IsNull) Eval(ctx *Context) (relation.Value, error) {
	v, err := n.X.Eval(ctx)
	if err != nil {
		return relation.Null(), err
	}
	return relation.Bool(v.IsNull() != n.Negate), nil
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

// Eval returns the first truthy arm's result.
func (c *Case) Eval(ctx *Context) (relation.Value, error) {
	for _, w := range c.Whens {
		cv, err := w.Cond.Eval(ctx)
		if err != nil {
			return relation.Null(), err
		}
		if !cv.IsNull() && cv.Truthy() {
			return w.Result.Eval(ctx)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(ctx)
	}
	return relation.Null(), nil
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

// Eval on an unresolved subquery is an error: the executor must substitute
// scalar subqueries before evaluation.
func (s *Subquery) Eval(*Context) (relation.Value, error) {
	return relation.Null(), fmt.Errorf("unresolved scalar subquery")
}

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

// Eval implements SQL IN / NOT IN semantics including the NULL subtleties:
// x IN S is NULL if x is NULL, or if x not found and S contains NULL.
func (in *In) Eval(ctx *Context) (relation.Value, error) {
	src, ok := in.Source.(*SetSource)
	if !ok {
		return relation.Null(), fmt.Errorf("IN source not resolved before evaluation")
	}
	v, err := in.X.Eval(ctx)
	if err != nil {
		return relation.Null(), err
	}
	if v.IsNull() {
		return relation.Null(), nil
	}
	found := src.Set.Contains(v)
	if !found && src.Set.HasNull() {
		return relation.Null(), nil
	}
	return relation.Bool(found != in.Negate), nil
}

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
