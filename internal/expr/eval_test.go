package expr

// The tree-walking evaluator: the reference semantics that Bind's compiled
// evaluators are held to (compile_test.go's parity corpus and
// FuzzExprCompile). It walks the tree per row and resolves every column by
// name through a RowEnv; production code evaluates only through Bind.

import (
	"fmt"

	"repro/internal/relation"
)

// RowEnv supplies column values during evaluation.
type RowEnv interface {
	Lookup(qualifier, name string) (relation.Value, bool)
}

// Context carries everything Eval needs. Funcs must be non-nil if the
// expression contains calls; Row may be nil for constant expressions.
type Context struct {
	Row   RowEnv
	Funcs *Registry
}

// eval evaluates any node through its Eval method.
func eval(e Expr, ctx *Context) (relation.Value, error) {
	ev, ok := e.(interface {
		Eval(*Context) (relation.Value, error)
	})
	if !ok {
		return relation.Null(), fmt.Errorf("cannot evaluate expression node %T", e)
	}
	return ev.Eval(ctx)
}

// Eval returns the constant.
func (l *Lit) Eval(*Context) (relation.Value, error) { return l.V, nil }

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

// Eval implements SQL semantics: NULL propagation for arithmetic and
// comparison, three-valued logic for AND/OR.
func (b *Binary) Eval(ctx *Context) (relation.Value, error) {
	if b.Op == OpAnd || b.Op == OpOr {
		return b.evalLogic(ctx)
	}
	lv, err := eval(b.L, ctx)
	if err != nil {
		return relation.Null(), err
	}
	rv, err := eval(b.R, ctx)
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
	lv, err := eval(b.L, ctx)
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
	rv, err := eval(b.R, ctx)
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

// Eval negates numerically or logically; NULL propagates.
func (u *Unary) Eval(ctx *Context) (relation.Value, error) {
	v, err := eval(u.X, ctx)
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
		v, err := eval(a, ctx)
		if err != nil {
			return relation.Null(), err
		}
		args[i] = v
	}
	return fn.Apply(args)
}

// Eval reports misuse: aggregates only have meaning inside GROUP BY plans.
func (a *Agg) Eval(*Context) (relation.Value, error) {
	return relation.Null(), fmt.Errorf("aggregate %s used outside of an aggregation context", a.String())
}

// Eval returns a boolean, never NULL.
func (n *IsNull) Eval(ctx *Context) (relation.Value, error) {
	v, err := eval(n.X, ctx)
	if err != nil {
		return relation.Null(), err
	}
	return relation.Bool(v.IsNull() != n.Negate), nil
}

// Eval returns the first truthy arm's result.
func (c *Case) Eval(ctx *Context) (relation.Value, error) {
	for _, w := range c.Whens {
		cv, err := eval(w.Cond, ctx)
		if err != nil {
			return relation.Null(), err
		}
		if !cv.IsNull() && cv.Truthy() {
			return eval(w.Result, ctx)
		}
	}
	if c.Else != nil {
		return eval(c.Else, ctx)
	}
	return relation.Null(), nil
}

// Eval on an unresolved subquery is an error: the executor must substitute
// scalar subqueries before evaluation.
func (s *Subquery) Eval(*Context) (relation.Value, error) {
	return relation.Null(), fmt.Errorf("unresolved scalar subquery")
}

// Eval implements SQL IN / NOT IN semantics including the NULL subtleties:
// x IN S is NULL if x is NULL, or if x not found and S contains NULL.
func (in *In) Eval(ctx *Context) (relation.Value, error) {
	src, ok := in.Source.(*SetSource)
	if !ok {
		return relation.Null(), fmt.Errorf("IN source not resolved before evaluation")
	}
	v, err := eval(in.X, ctx)
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
