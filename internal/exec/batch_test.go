package exec

import (
	"math"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
)

// kernelValue builds one value of the kind selected by k (mod 5): NULL,
// bool, int, float, string.
func kernelValue(k uint8, i int64, f float64, s string) relation.Value {
	switch k % 5 {
	case 0:
		return relation.Null()
	case 1:
		return relation.Bool(i%2 != 0)
	case 2:
		return relation.Int(i)
	case 3:
		return relation.Float(f)
	default:
		return relation.String(s)
	}
}

// FuzzFilterKernel holds the row filter kernel to the bound predicate it
// replaces: for a column value of any kind, any comparison operator, a
// literal of any non-NULL kind on either side, the kernel passes the row
// exactly when the compiled predicate is non-NULL and truthy.
func FuzzFilterKernel(f *testing.F) {
	nan := math.NaN()
	for _, seed := range []struct {
		colKind  uint8 // kernelValue's kinds: NULL, bool, int, float, string
		ci       int64
		cf       float64
		cs       string
		op       uint8 // =, !=, <, <=, >, >=
		litKind  uint8 // the non-NULL kinds: bool, int, float, string
		li       int64
		lf       float64
		ls       string
		litFirst bool
	}{
		{2, 3, 0, "", 0, 1, 3, 0, "", false},                                   // 3 = 3
		{2, 3, 0, "", 0, 2, 0, 3.0, "", false},                                 // Int(3) = Float(3.0)
		{3, 0, 3.0, "", 2, 1, 3, 0, "", true},                                  // 3 < 3.0
		{3, 0, nan, "", 0, 1, 7, 0, "", false},                                 // NaN = 7
		{2, 7, 0, "", 4, 2, 0, nan, "", false},                                 // 7 > NaN
		{3, 0, nan, "", 1, 2, 0, nan, "", false},                               // NaN != NaN
		{4, 0, 0, "gc", 0, 3, 0, 0, "gc", false},                               // 'gc' = 'gc'
		{4, 0, 0, "ga", 5, 3, 0, 0, "gb", true},                                // 'gb' >= 'ga'
		{4, 0, 0, "10", 3, 1, 9, 0, "", false},                                 // '10' <= 9
		{1, 1, 0, "", 0, 1, 1, 0, "", false},                                   // true = 1
		{1, 0, 0, "", 2, 0, 1, 0, "", false},                                   // false < true
		{2, 5, 0, "", 4, 0, 1, 0, "", true},                                    // true > 5
		{0, 0, 0, "", 1, 1, 0, 0, "", false},                                   // NULL != 0
		{0, 0, 0, "", 3, 3, 0, 0, "", true},                                    // '' <= NULL
		{2, math.MaxInt64, 0, "", 0, 2, 0, 9.223372036854775807e18, "", false}, // int/float rounding
		{3, 0, math.Inf(-1), "", 2, 1, math.MinInt64, 0, "", false},            // -Inf < MinInt64
	} {
		f.Add(seed.colKind, seed.ci, seed.cf, seed.cs, seed.op, seed.litKind, seed.li, seed.lf, seed.ls, seed.litFirst)
	}
	schema := relation.NewSchema(relation.Col("x", relation.KindInt))
	funcs := expr.NewRegistry()
	ops := []expr.BinOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	f.Fuzz(func(t *testing.T, colKind uint8, ci int64, cf float64, cs string,
		op uint8, litKind uint8, li int64, lf float64, ls string, litFirst bool) {
		v := kernelValue(colKind, ci, cf, cs)
		lit := kernelValue(1+litKind%4, li, lf, ls)
		var l, r expr.Expr = &expr.Column{Name: "x"}, &expr.Lit{V: lit}
		if litFirst {
			l, r = r, l
		}
		pred := &expr.Binary{Op: ops[int(op)%len(ops)], L: l, R: r}
		be := bindExpr(pred, schema, funcs)
		kern := buildFilterKernel(be)
		if !kern.ok {
			t.Fatalf("%s: no kernel for a column-vs-literal predicate", pred)
		}
		res, err := be.fn(&expr.Env{Row: relation.Tuple{v}})
		if err != nil {
			t.Fatalf("%s: bound predicate: %v", pred, err)
		}
		want := !res.IsNull() && res.Truthy()
		if got := kern.match(&v); got != want {
			t.Fatalf("%s with x = %v (%s): kernel %v, bound predicate %v", pred, v, v.Kind(), got, want)
		}
	})
}
