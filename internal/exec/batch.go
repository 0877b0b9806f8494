package exec

// Row filter kernel. Crossfilter predicates are overwhelmingly
// column-compare-literal (brush bounds over a bin column); evaluating them
// through the compiled-closure interpreter costs an env store, a closure
// call, and Value boxing per row. The kernel recognizes the shape at
// prepare time and, at run time, tests the one column of each row in
// place: same-kind operands compare their raw payloads, so the common int
// case is a load and two compares. Both the b* filter and the d* filter
// use it; every other predicate keeps the bound closure.

import (
	"strings"

	"repro/internal/expr"
	"repro/internal/relation"
)

// filterKernel is the compiled form of a `column <op> literal` predicate
// (either operand order; the op is normalized to column-on-the-left).
type filterKernel struct {
	ok  bool
	idx int            // column index in the input schema
	op  expr.BinOp     // one of OpEq..OpGe, column on the left
	c   relation.Value // the literal; never NULL
	ci  int64          // int payload when c is an int
	cf  float64        // numeric payload (AsFloat) when c is numeric
	cs  string         // string payload when c is a string
}

// buildFilterKernel recognizes a compilable predicate, returning a zero
// (disabled) kernel otherwise. A NULL literal is left to the bound
// predicate: the comparison is NULL for every row, so nothing passes anyway.
func buildFilterKernel(pred bexpr) filterKernel {
	bin, ok := pred.raw.(*expr.Binary)
	if !ok {
		return filterKernel{}
	}
	op := bin.Op
	switch op {
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
	default:
		return filterKernel{}
	}
	col, l := bin.L.(*expr.Column)
	lit, r := bin.R.(*expr.Lit)
	if !l || !r {
		// Mirror `literal <op> column` to column-on-the-left.
		if col, r = bin.R.(*expr.Column); !r {
			return filterKernel{}
		}
		if lit, l = bin.L.(*expr.Lit); !l {
			return filterKernel{}
		}
		switch op {
		case expr.OpLt:
			op = expr.OpGt
		case expr.OpLe:
			op = expr.OpGe
		case expr.OpGt:
			op = expr.OpLt
		case expr.OpGe:
			op = expr.OpLe
		}
	}
	if lit.V.IsNull() {
		return filterKernel{}
	}
	idx, err := pred.schema.IndexErr(col.Qualifier, col.Name)
	if err != nil {
		return filterKernel{}
	}
	k := filterKernel{ok: true, idx: idx, op: op, c: lit.V}
	switch lit.V.Kind() {
	case relation.KindInt:
		k.ci, _ = lit.V.AsInt()
		k.cf, _ = lit.V.AsFloat()
	case relation.KindFloat:
		k.cf, _ = lit.V.AsFloat()
	case relation.KindString:
		k.cs = lit.V.AsString()
	}
	return k
}

// match reports whether one column value passes the filter. NULL fails:
// the comparison is NULL, which a filter drops. Same-kind int/int,
// numeric/numeric and string/string operands compare their payloads
// directly; any other mix (a bool, or a string against a number) takes
// Value.Compare. The direct compares order values exactly as Value.Compare
// does (ints as ints, Int(3) ≡ Float(3.0), NaN neither below nor above any
// number), so the verdict is the bound predicate's "non-NULL and truthy".
// v is passed by pointer: copying the 40-byte Value per row costs more than
// the compare.
func (k *filterKernel) match(v *relation.Value) bool {
	switch v.Kind() {
	case relation.KindNull:
		return false
	case relation.KindInt:
		x, _ := v.AsInt()
		switch k.c.Kind() {
		case relation.KindInt:
			return k.test(x < k.ci, x > k.ci)
		case relation.KindFloat:
			f := float64(x)
			return k.test(f < k.cf, f > k.cf)
		}
	case relation.KindFloat:
		if k.c.Kind().Numeric() {
			f, _ := v.AsFloat()
			return k.test(f < k.cf, f > k.cf)
		}
	case relation.KindString:
		if k.c.Kind() == relation.KindString {
			c := strings.Compare(v.AsString(), k.cs)
			return k.test(c < 0, c > 0)
		}
	}
	c := v.Compare(k.c)
	return k.test(c < 0, c > 0)
}

// test reports whether the ordering of the column value against the
// literal (below, above; neither means equal) satisfies the operator.
func (k *filterKernel) test(lt, gt bool) bool {
	switch k.op {
	case expr.OpEq:
		return !lt && !gt
	case expr.OpNe:
		return lt || gt
	case expr.OpLt:
		return lt
	case expr.OpLe:
		return !gt
	case expr.OpGt:
		return gt
	default: // OpGe
		return !lt
	}
}
