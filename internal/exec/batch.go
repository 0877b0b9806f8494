package exec

// Columnar filter kernel. Crossfilter predicates are overwhelmingly
// column-compare-literal (brush bounds over a bin column); evaluating them
// through the compiled-closure interpreter costs an env store, a closure
// call, and Value boxing per row. The kernel recognizes the shape at
// prepare time and, at run time, shreds the input into a relation.Batch so
// the comparison runs as a tight typed loop over one column with a
// selection bitmap — the row path is kept for every other predicate.

import (
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
// (disabled) kernel otherwise. A NULL literal is left to the row path: the
// comparison is NULL for every row, so nothing would pass anyway.
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

// opMatch reports whether a three-way comparison result c (-1, 0, +1)
// satisfies the kernel's operator — the same decision Binary.Eval makes
// from Value.Compare for non-NULL operands.
func opMatch(c int, op expr.BinOp) bool {
	switch op {
	case expr.OpEq:
		return c == 0
	case expr.OpNe:
		return c != 0
	case expr.OpLt:
		return c < 0
	case expr.OpLe:
		return c <= 0
	case expr.OpGt:
		return c > 0
	default: // OpGe
		return c >= 0
	}
}

// matchVal evaluates the kernel against one column value (the delta
// stream). NULL operands make the comparison NULL, which a filter
// drops.
func (k *filterKernel) matchVal(v relation.Value) bool {
	if v.IsNull() {
		return false
	}
	return opMatch(v.Compare(k.c), k.op)
}

// filterBatch shreds rows into a single-column batch and runs the
// comparison as a typed loop, appending passing rows to out. The second
// return is false when the kernel is disabled (callers keep the row path).
// Typed loops fire only on same-kind comparisons; everything else goes
// through Value.Compare, whose ordering Binary.Eval uses too — the kernel
// is semantically exact, not approximate.
func (k *filterKernel) filterBatch(rows []relation.Tuple, out []relation.Tuple) ([]relation.Tuple, bool) {
	if !k.ok {
		return nil, false
	}
	if len(rows) == 0 {
		return out, true
	}
	if k.idx >= len(rows[0]) {
		return nil, false
	}
	b := relation.FromTuples(rows, len(rows[0]), []int{k.idx})
	col := &b.Cols[k.idx]
	b.Sel = relation.NewBitmap(b.N)
	ck := k.c.Kind()
	switch {
	case col.Kind == relation.KindInt && ck == relation.KindInt:
		for i, v := range col.Ints {
			if col.Null(i) {
				continue
			}
			c := 0
			if v < k.ci {
				c = -1
			} else if v > k.ci {
				c = 1
			}
			if opMatch(c, k.op) {
				b.Sel.Set(i)
			}
		}
	case col.Kind == relation.KindInt && ck == relation.KindFloat:
		for i, v := range col.Ints {
			if !col.Null(i) && opMatch(cmpFloat(float64(v), k.cf), k.op) {
				b.Sel.Set(i)
			}
		}
	case col.Kind == relation.KindFloat && (ck == relation.KindInt || ck == relation.KindFloat):
		for i, v := range col.Floats {
			if !col.Null(i) && opMatch(cmpFloat(v, k.cf), k.op) {
				b.Sel.Set(i)
			}
		}
	case col.Kind == relation.KindString && ck == relation.KindString:
		for i, v := range col.Strs {
			if col.Null(i) {
				continue
			}
			c := 0
			if v < k.cs {
				c = -1
			} else if v > k.cs {
				c = 1
			}
			if opMatch(c, k.op) {
				b.Sel.Set(i)
			}
		}
	default:
		// Mixed or cross-kind column: per-value Compare, still closure-free.
		for i := 0; i < b.N; i++ {
			v := col.Value(i)
			if !v.IsNull() && opMatch(v.Compare(k.c), k.op) {
				b.Sel.Set(i)
			}
		}
	}
	return b.Tuples(out), true
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
