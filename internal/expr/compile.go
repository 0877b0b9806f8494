package expr

// Compile-once, run-many evaluation. Bind resolves every column reference in
// an expression tree to a positional index against a fixed schema and returns
// a closure-based evaluator, so per-row evaluation does zero name lookups and
// zero tree walks. Bind is the only evaluator: the executor, the planner's
// constant folding, the parser's IN lists, DML and the event recognizer all
// run compiled closures. A tree-walking reference evaluator lives in the
// package's tests (eval_test.go), and the parity corpus and FuzzExprCompile
// in compile_test.go hold Bind to it on values, NULL propagation and errors.
//
// A compiled evaluator holds no scratch of its own: what an evaluation needs
// (function-call arguments) is staged in the Env it is handed. One evaluator
// may therefore run on several goroutines at once — the parallel tile build
// does — each with an Env of its own; an Env serves one goroutine at a time.

import (
	"fmt"

	"repro/internal/relation"
)

// Env is the per-row state a compiled evaluator reads. Row is positional
// against the schema the expression was bound to; a nil Row makes every
// column NULL (the group-representative semantics the aggregate operator
// needs for the empty global group). Aggs carries per-group aggregate results
// for evaluators bound with an AggSlot resolver.
type Env struct {
	Row  relation.Tuple
	Aggs []relation.Value

	args []relation.Value // argument stack of the calls being evaluated
}

// Compiled is a bound, ready-to-run evaluator produced by Bind.
type Compiled func(env *Env) (relation.Value, error)

// BindContext carries everything Bind needs. Schema fixes column positions;
// Funcs resolves scalar UDF calls at bind time (register UDFs before binding,
// as Engine.Funcs documents). AggSlot, when non-nil, maps aggregate calls to
// result slots in Env.Aggs — only the aggregate operator sets it; everywhere
// else an aggregate compiles to a misuse error.
type BindContext struct {
	Schema  relation.Schema
	Funcs   *Registry
	AggSlot func(*Agg) (int, bool)
}

// errc builds an evaluator that fails with a fixed error. Bind never fails
// eagerly: unresolvable references become per-row errors, so expressions
// over empty inputs stay silent.
func errc(err error) Compiled {
	return func(*Env) (relation.Value, error) { return relation.Null(), err }
}

// litc builds an evaluator returning a constant.
func litc(v relation.Value) Compiled {
	return func(*Env) (relation.Value, error) { return v, nil }
}

// Bind compiles the expression against the context. A nil expression yields a
// nil Compiled (callers guard, mirroring how nil predicates are skipped).
func Bind(e Expr, bc *BindContext) Compiled {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Lit:
		return litc(n.V)
	case *Column:
		return bindColumn(n, bc)
	case *Binary:
		return bindBinary(n, bc)
	case *Unary:
		return bindUnary(n, bc)
	case *Call:
		return bindCall(n, bc)
	case *Agg:
		return bindAgg(n, bc)
	case *IsNull:
		x := Bind(n.X, bc)
		neg := n.Negate
		return func(env *Env) (relation.Value, error) {
			v, err := x(env)
			if err != nil {
				return relation.Null(), err
			}
			return relation.Bool(v.IsNull() != neg), nil
		}
	case *Case:
		return bindCase(n, bc)
	case *In:
		return bindIn(n, bc)
	case *Subquery:
		return errc(fmt.Errorf("unresolved scalar subquery"))
	default:
		return errc(fmt.Errorf("cannot evaluate expression node %T", e))
	}
}

func bindColumn(c *Column, bc *BindContext) Compiled {
	idx, err := bc.Schema.IndexErr(c.Qualifier, c.Name)
	if err != nil {
		// One surface error for both missing and ambiguous references.
		return errc(fmt.Errorf("unknown column %s", c.String()))
	}
	name := c.String()
	return func(env *Env) (relation.Value, error) {
		if env.Row == nil {
			return relation.Null(), nil
		}
		if idx >= len(env.Row) {
			return relation.Null(), fmt.Errorf("unknown column %s", name)
		}
		return env.Row[idx], nil
	}
}

func bindBinary(b *Binary, bc *BindContext) Compiled {
	l := Bind(b.L, bc)
	r := Bind(b.R, bc)
	switch b.Op {
	case OpAnd, OpOr:
		isAnd := b.Op == OpAnd
		return func(env *Env) (relation.Value, error) {
			lv, err := l(env)
			if err != nil {
				return relation.Null(), err
			}
			if !lv.IsNull() {
				lt := lv.Truthy()
				if isAnd && !lt {
					return relation.Bool(false), nil
				}
				if !isAnd && lt {
					return relation.Bool(true), nil
				}
			}
			rv, err := r(env)
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
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		var test func(int) bool
		switch b.Op {
		case OpEq:
			test = func(c int) bool { return c == 0 }
		case OpNe:
			test = func(c int) bool { return c != 0 }
		case OpLt:
			test = func(c int) bool { return c < 0 }
		case OpLe:
			test = func(c int) bool { return c <= 0 }
		case OpGt:
			test = func(c int) bool { return c > 0 }
		default:
			test = func(c int) bool { return c >= 0 }
		}
		return func(env *Env) (relation.Value, error) {
			lv, rv, err := evalPair(l, r, env)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return relation.Null(), err
			}
			return relation.Bool(test(lv.Compare(rv))), nil
		}
	case OpConcat:
		return func(env *Env) (relation.Value, error) {
			lv, rv, err := evalPair(l, r, env)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return relation.Null(), err
			}
			return relation.String(lv.AsString() + rv.AsString()), nil
		}
	default:
		op := b.Op
		return func(env *Env) (relation.Value, error) {
			lv, rv, err := evalPair(l, r, env)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return relation.Null(), err
			}
			return evalArith(op, lv, rv)
		}
	}
}

// evalPair evaluates both operands left-to-right, so the left operand's
// error wins.
func evalPair(l, r Compiled, env *Env) (relation.Value, relation.Value, error) {
	lv, err := l(env)
	if err != nil {
		return relation.Null(), relation.Null(), err
	}
	rv, err := r(env)
	if err != nil {
		return relation.Null(), relation.Null(), err
	}
	return lv, rv, nil
}

func bindUnary(u *Unary, bc *BindContext) Compiled {
	x := Bind(u.X, bc)
	if u.Op == OpNot {
		return func(env *Env) (relation.Value, error) {
			v, err := x(env)
			if err != nil || v.IsNull() {
				return relation.Null(), err
			}
			return relation.Bool(!v.Truthy()), nil
		}
	}
	return func(env *Env) (relation.Value, error) {
		v, err := x(env)
		if err != nil || v.IsNull() {
			return relation.Null(), err
		}
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
	}
}

func bindCall(c *Call, bc *BindContext) Compiled {
	if bc.Funcs == nil {
		return errc(fmt.Errorf("no function registry for call to %s", c.Name))
	}
	fn, ok := bc.Funcs.Lookup(c.Name)
	if !ok {
		return errc(fmt.Errorf("unknown function %s", c.Name))
	}
	argcs := make([]Compiled, len(c.Args))
	for i, a := range c.Args {
		argcs[i] = Bind(a, bc)
	}
	// Arguments are pushed on the Env's stack (a nested call pushes and pops
	// above them) and popped after Apply; builtins never retain the slice.
	// The stack grows once per Env, not once per row.
	return func(env *Env) (relation.Value, error) {
		base := len(env.args)
		for _, ac := range argcs {
			v, err := ac(env)
			if err != nil {
				env.args = env.args[:base]
				return relation.Null(), err
			}
			env.args = append(env.args, v)
		}
		v, err := fn.Apply(env.args[base:])
		env.args = env.args[:base]
		return v, err
	}
}

func bindAgg(a *Agg, bc *BindContext) Compiled {
	if bc.AggSlot != nil {
		if slot, ok := bc.AggSlot(a); ok {
			return func(env *Env) (relation.Value, error) {
				return env.Aggs[slot], nil
			}
		}
	}
	return errc(fmt.Errorf("aggregate %s used outside of an aggregation context", a.String()))
}

func bindCase(c *Case, bc *BindContext) Compiled {
	type arm struct{ cond, result Compiled }
	arms := make([]arm, len(c.Whens))
	for i, w := range c.Whens {
		arms[i] = arm{cond: Bind(w.Cond, bc), result: Bind(w.Result, bc)}
	}
	els := Bind(c.Else, bc)
	return func(env *Env) (relation.Value, error) {
		for _, a := range arms {
			cv, err := a.cond(env)
			if err != nil {
				return relation.Null(), err
			}
			if !cv.IsNull() && cv.Truthy() {
				return a.result(env)
			}
		}
		if els != nil {
			return els(env)
		}
		return relation.Null(), nil
	}
}

func bindIn(in *In, bc *BindContext) Compiled {
	src, ok := in.Source.(*SetSource)
	if !ok {
		return errc(fmt.Errorf("IN source not resolved before evaluation"))
	}
	x := Bind(in.X, bc)
	set := src.Set
	neg := in.Negate
	return func(env *Env) (relation.Value, error) {
		v, err := x(env)
		if err != nil {
			return relation.Null(), err
		}
		if v.IsNull() {
			return relation.Null(), nil
		}
		found := set.Contains(v)
		if !found && set.HasNull() {
			return relation.Null(), nil
		}
		return relation.Bool(found != neg), nil
	}
}

// NeedsResolution reports whether the expression contains scalar subqueries
// or IN sources the executor must materialize against the live catalog before
// binding. Expressions free of these (the hot-path case) bind once at prepare
// time and are reused across every execution.
func NeedsResolution(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		switch n := x.(type) {
		case *Subquery:
			found = true
			return false
		case *In:
			if _, ok := n.Source.(*SetSource); !ok {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
