package plan

import (
	"repro/internal/expr"
	"repro/internal/relation"
)

// Optimize applies the offline optimizer's rule set (Fig 3) bottom-up:
//
//  1. constant folding inside predicates and projections,
//  2. removal of always-true filters (and empty-plan shortcut for
//     always-false filters is left to the executor),
//  3. predicate pushdown: filter conjuncts sink below joins to the side
//     that can evaluate them; cross-side conjuncts become join predicates,
//  4. join input ordering: the smaller estimated input becomes the hash
//     build side (left).
//
// funcs is needed to fold calls to pure builtins at plan time.
func Optimize(n Node, funcs *expr.Registry) Node {
	n = rewrite(n, func(x Node) Node { return foldNode(x, funcs) })
	n = rewrite(n, pushdown)
	n = rewrite(n, orderJoin)
	n = rewrite(n, dropTrivialFilter)
	return n
}

// rewrite applies fn bottom-up over the plan tree.
func rewrite(n Node, fn func(Node) Node) Node {
	switch t := n.(type) {
	case *Filter:
		t.Child = rewrite(t.Child, fn)
	case *Project:
		t.Child = rewrite(t.Child, fn)
	case *aliasProject:
		t.Child = rewrite(t.Child, fn)
	case *Join:
		t.L = rewrite(t.L, fn)
		t.R = rewrite(t.R, fn)
	case *Aggregate:
		t.Child = rewrite(t.Child, fn)
	case *Sort:
		t.Child = rewrite(t.Child, fn)
	case *Limit:
		t.Child = rewrite(t.Child, fn)
	case *Distinct:
		t.Child = rewrite(t.Child, fn)
	case *SetOp:
		t.L = rewrite(t.L, fn)
		t.R = rewrite(t.R, fn)
	}
	return fn(n)
}

// foldExpr replaces constant subexpressions with literals. Folding is
// best-effort: any evaluation error leaves the expression unchanged for the
// executor to report in row context.
func foldExpr(e expr.Expr, funcs *expr.Registry) expr.Expr {
	if e == nil {
		return nil
	}
	ctx := &expr.Context{Funcs: funcs}
	return expr.Transform(e, func(x Expr) Expr {
		switch x.(type) {
		case *expr.Lit, *expr.Column, *expr.Agg, *expr.Subquery:
			return x
		}
		if !expr.IsConstant(x) {
			return x
		}
		v, err := x.Eval(ctx)
		if err != nil {
			return x
		}
		return expr.Literal(v)
	})
}

// Expr aliases the expression interface for brevity in this file.
type Expr = expr.Expr

func foldNode(n Node, funcs *expr.Registry) Node {
	switch t := n.(type) {
	case *Filter:
		t.Pred = foldExpr(t.Pred, funcs)
	case *Project:
		for i := range t.Items {
			t.Items[i].Expr = foldExpr(t.Items[i].Expr, funcs)
		}
	case *Join:
		t.Pred = foldExpr(t.Pred, funcs)
	case *Aggregate:
		for i := range t.Items {
			t.Items[i].Expr = foldExpr(t.Items[i].Expr, funcs)
		}
		t.Having = foldExpr(t.Having, funcs)
	case *Sort:
		for i := range t.Keys {
			t.Keys[i].Expr = foldExpr(t.Keys[i].Expr, funcs)
		}
	}
	return n
}

// dropTrivialFilter removes filters whose predicate folded to constant true.
func dropTrivialFilter(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	if lit, ok := f.Pred.(*expr.Lit); ok && !lit.V.IsNull() && lit.V.Truthy() {
		return f.Child
	}
	return n
}

// pushdown sinks filter conjuncts below a join when all their column
// references bind on one side; conjuncts spanning both sides become the
// join's predicate (enabling hash joins in the executor).
func pushdown(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	j, ok := f.Child.(*Join)
	if !ok {
		return n
	}
	var leftPreds, rightPreds, joinPreds []expr.Expr
	for _, c := range expr.Conjuncts(f.Pred) {
		switch {
		case bindsWithin(c, j.L.Schema()):
			leftPreds = append(leftPreds, c)
		case bindsWithin(c, j.R.Schema()):
			rightPreds = append(rightPreds, c)
		default:
			joinPreds = append(joinPreds, c)
		}
	}
	if len(leftPreds) == 0 && len(rightPreds) == 0 && j.Pred == nil && len(joinPreds) == len(expr.Conjuncts(f.Pred)) {
		// Nothing sinks; still move the predicate into the join so the
		// executor can extract equi-keys.
		j.Pred = expr.AndAll(append([]expr.Expr{j.Pred}, joinPreds...))
		return j
	}
	l := j.L
	if len(leftPreds) > 0 {
		l = pushdown(&Filter{Child: l, Pred: expr.AndAll(leftPreds)})
	}
	r := j.R
	if len(rightPreds) > 0 {
		r = pushdown(&Filter{Child: r, Pred: expr.AndAll(rightPreds)})
	}
	newJoin := &Join{L: l, R: r, Pred: expr.AndAll(append([]expr.Expr{j.Pred}, joinPreds...))}
	return newJoin
}

// bindsWithin reports whether every column referenced by e resolves in the
// schema. Subquery-bearing predicates never sink (their evaluation context
// is the whole statement).
func bindsWithin(e expr.Expr, s relation.Schema) bool {
	ok := true
	expr.Walk(e, func(x expr.Expr) bool {
		switch c := x.(type) {
		case *expr.Subquery:
			ok = false
			return false
		case *expr.In:
			if _, resolved := c.Source.(*expr.SetSource); !resolved {
				// IN over a relation/subquery is resolved at exec time
				// against the full statement; keep it above the join.
				ok = false
				return false
			}
		case *expr.Column:
			if _, err := s.IndexErr(c.Qualifier, c.Name); err != nil {
				ok = false
				return false
			}
		}
		return ok
	})
	return ok
}

// orderJoin puts the smaller estimated input on the left (the executor's
// hash build side). Only plain scans and filtered scans are estimated; other
// shapes keep their order.
func orderJoin(n Node) Node {
	j, ok := n.(*Join)
	if !ok {
		return n
	}
	le, lok := estimate(j.L)
	re, rok := estimate(j.R)
	if lok && rok && re < le && symmetricPred(j.Pred) {
		j.L, j.R = j.R, j.L
	}
	return j
}

// estimate guesses input cardinality from scan estimates; filters halve it.
func estimate(n Node) (int, bool) {
	switch t := n.(type) {
	case *Scan:
		return t.EstRows, true
	case *Filter:
		e, ok := estimate(t.Child)
		return e / 2, ok
	default:
		return 0, false
	}
}

// symmetricPred reports whether swapping join inputs preserves the
// predicate's meaning; true for nil and for pure conjunctions of
// commutative comparisons (we keep it conservative: only swap when every
// conjunct is an equality or the predicate is nil).
func symmetricPred(p expr.Expr) bool {
	if p == nil {
		return true
	}
	for _, c := range expr.Conjuncts(p) {
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			return false
		}
	}
	return true
}
