package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

type mapEnv map[string]relation.Value

func (m mapEnv) Lookup(q, n string) (relation.Value, bool) {
	key := n
	if q != "" {
		key = q + "." + n
	}
	v, ok := m[key]
	return v, ok
}

func ctx(env mapEnv) *Context { return &Context{Row: env, Funcs: NewRegistry()} }

// evalOK evaluates e over env with the reference evaluator and with Bind
// (against a schema of env's columns), and requires both to agree.
func evalOK(t *testing.T, e Expr, env mapEnv) relation.Value {
	t.Helper()
	v, err := eval(e, ctx(env))
	if err != nil {
		t.Fatalf("eval %s: %v", e.String(), err)
	}
	var cols []relation.Column
	var row relation.Tuple
	for key, val := range env {
		q, n, ok := strings.Cut(key, ".")
		if !ok {
			q, n = "", key
		}
		cols = append(cols, relation.Column{Qualifier: q, Name: n, Kind: val.Kind()})
		row = append(row, val)
	}
	got, err := Bind(e, &BindContext{Schema: relation.NewSchema(cols...), Funcs: NewRegistry()})(&Env{Row: row})
	if err != nil || got != v {
		t.Fatalf("bind %s: got %v, %v; reference %v", e.String(), got, err, v)
	}
	return v
}

func lit(v relation.Value) Expr { return Literal(v) }

func TestArithmeticIntFloat(t *testing.T) {
	cases := []struct {
		e    Expr
		want relation.Value
	}{
		{&Binary{OpAdd, lit(relation.Int(2)), lit(relation.Int(3))}, relation.Int(5)},
		{&Binary{OpMul, lit(relation.Int(2)), lit(relation.Float(3.5))}, relation.Float(7)},
		{&Binary{OpDiv, lit(relation.Int(7)), lit(relation.Int(2))}, relation.Float(3.5)},
		{&Binary{OpSub, lit(relation.Float(1)), lit(relation.Float(0.25))}, relation.Float(0.75)},
		{&Binary{OpMod, lit(relation.Int(7)), lit(relation.Int(3))}, relation.Int(1)},
		{&Binary{OpConcat, lit(relation.String("a")), lit(relation.Int(1))}, relation.String("a1")},
	}
	for _, c := range cases {
		got := evalOK(t, c.e, nil)
		if !got.Equal(c.want) {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	e := &Binary{OpDiv, lit(relation.Int(1)), lit(relation.Int(0))}
	if _, err := eval(e, ctx(nil)); err == nil {
		t.Fatal("division by zero should error")
	}
}

func TestNullPropagation(t *testing.T) {
	e := &Binary{OpAdd, lit(relation.Null()), lit(relation.Int(1))}
	if v := evalOK(t, e, nil); !v.IsNull() {
		t.Errorf("NULL + 1 = %s, want NULL", v)
	}
	cmp := &Binary{OpLt, lit(relation.Null()), lit(relation.Int(1))}
	if v := evalOK(t, cmp, nil); !v.IsNull() {
		t.Errorf("NULL < 1 = %s, want NULL", v)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	T, F, N := lit(relation.Bool(true)), lit(relation.Bool(false)), lit(relation.Null())
	cases := []struct {
		e    Expr
		want relation.Value
	}{
		{&Binary{OpAnd, T, N}, relation.Null()},
		{&Binary{OpAnd, F, N}, relation.Bool(false)},
		{&Binary{OpOr, T, N}, relation.Bool(true)},
		{&Binary{OpOr, F, N}, relation.Null()},
		{&Binary{OpAnd, T, T}, relation.Bool(true)},
		{&Binary{OpOr, F, F}, relation.Bool(false)},
	}
	for _, c := range cases {
		got := evalOK(t, c.e, nil)
		if got.IsNull() != c.want.IsNull() || (!got.IsNull() && !got.Equal(c.want)) {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestColumnLookup(t *testing.T) {
	env := mapEnv{"S.x": relation.Int(10), "y": relation.Int(3)}
	e := &Binary{OpAdd, &Column{Qualifier: "S", Name: "x"}, &Column{Name: "y"}}
	if v := evalOK(t, e, env); !v.Equal(relation.Int(13)) {
		t.Errorf("S.x + y = %s", v)
	}
	bad := &Column{Name: "zz"}
	if _, err := eval(bad, ctx(env)); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestLinearScale(t *testing.T) {
	e := &Call{Name: "linear_scale", Args: []Expr{
		lit(relation.Float(5)), lit(relation.Float(0)), lit(relation.Float(10)),
		lit(relation.Float(0)), lit(relation.Float(400)),
	}}
	if v := evalOK(t, e, nil); !v.Equal(relation.Float(200)) {
		t.Errorf("linear_scale mid = %s, want 200", v)
	}
	// degenerate domain maps to range midpoint
	e2 := &Call{Name: "linear_scale", Args: []Expr{
		lit(relation.Float(7)), lit(relation.Float(7)), lit(relation.Float(7)),
		lit(relation.Float(0)), lit(relation.Float(100)),
	}}
	if v := evalOK(t, e2, nil); !v.Equal(relation.Float(50)) {
		t.Errorf("degenerate linear_scale = %s, want 50", v)
	}
}

func TestInRectangle(t *testing.T) {
	mk := func(x, y, x0, y0, x1, y1 float64) Expr {
		return &Call{Name: "in_rectangle", Args: []Expr{
			lit(relation.Float(x)), lit(relation.Float(y)),
			lit(relation.Float(x0)), lit(relation.Float(y0)),
			lit(relation.Float(x1)), lit(relation.Float(y1)),
		}}
	}
	if v := evalOK(t, mk(5, 5, 0, 0, 10, 10), nil); !v.Truthy() {
		t.Error("point inside should be true")
	}
	// corner order must not matter (drag can go up-left)
	if v := evalOK(t, mk(5, 5, 10, 10, 0, 0), nil); !v.Truthy() {
		t.Error("reversed corners should still contain the point")
	}
	if v := evalOK(t, mk(15, 5, 0, 0, 10, 10), nil); v.Truthy() {
		t.Error("point outside should be false")
	}
}

func TestCaseExpr(t *testing.T) {
	e := &Case{
		Whens: []When{
			{Cond: &Binary{OpGt, &Column{Name: "v"}, lit(relation.Int(10))}, Result: lit(relation.String("big"))},
			{Cond: &Binary{OpGt, &Column{Name: "v"}, lit(relation.Int(5))}, Result: lit(relation.String("mid"))},
		},
		Else: lit(relation.String("small")),
	}
	cases := map[int64]string{20: "big", 7: "mid", 1: "small"}
	for in, want := range cases {
		v := evalOK(t, e, mapEnv{"v": relation.Int(in)})
		if v.AsString() != want {
			t.Errorf("case(%d) = %s, want %s", in, v, want)
		}
	}
}

func TestInSetSemantics(t *testing.T) {
	set := NewValueSet(relation.Int(1), relation.Int(2))
	in := &In{X: &Column{Name: "v"}, Source: &SetSource{Set: set}}
	if v := evalOK(t, in, mapEnv{"v": relation.Int(1)}); !v.Truthy() {
		t.Error("1 IN {1,2} should be true")
	}
	if v := evalOK(t, in, mapEnv{"v": relation.Int(3)}); v.Truthy() || v.IsNull() {
		t.Error("3 IN {1,2} should be false")
	}
	// NULL membership subtleties
	setN := NewValueSet(relation.Int(1), relation.Null())
	inN := &In{X: &Column{Name: "v"}, Source: &SetSource{Set: setN}}
	if v := evalOK(t, inN, mapEnv{"v": relation.Int(3)}); !v.IsNull() {
		t.Error("3 IN {1,NULL} should be NULL")
	}
	notIn := &In{X: &Column{Name: "v"}, Source: &SetSource{Set: setN}, Negate: true}
	if v := evalOK(t, notIn, mapEnv{"v": relation.Int(3)}); !v.IsNull() {
		t.Error("3 NOT IN {1,NULL} should be NULL")
	}
	// Float/Int cross-kind membership
	if !set.Contains(relation.Float(2.0)) {
		t.Error("2.0 should be found in {1,2}")
	}
}

func TestIsNull(t *testing.T) {
	e := &IsNull{X: &Column{Name: "v"}}
	if v := evalOK(t, e, mapEnv{"v": relation.Null()}); !v.Truthy() {
		t.Error("NULL IS NULL should be true")
	}
	e2 := &IsNull{X: &Column{Name: "v"}, Negate: true}
	if v := evalOK(t, e2, mapEnv{"v": relation.Int(1)}); !v.Truthy() {
		t.Error("1 IS NOT NULL should be true")
	}
}

func TestAggregateOutsideGroupingErrors(t *testing.T) {
	a := &Agg{Name: "sum", Arg: &Column{Name: "v"}}
	if _, err := eval(a, ctx(mapEnv{"v": relation.Int(1)})); err == nil {
		t.Fatal("aggregate outside grouping should error")
	}
}

func TestWalkAndColumns(t *testing.T) {
	e := &Binary{OpAnd,
		&Binary{OpGt, &Column{Qualifier: "S", Name: "x"}, lit(relation.Int(1))},
		&Call{Name: "abs", Args: []Expr{&Column{Name: "y"}}},
	}
	cols := Columns(e)
	if len(cols) != 2 || cols[0].String() != "S.x" || cols[1].String() != "y" {
		t.Fatalf("Columns = %v", cols)
	}
	if HasAggregate(e) {
		t.Error("no aggregate expected")
	}
	withAgg := &Binary{OpAdd, &Agg{Name: "count"}, lit(relation.Int(1))}
	if !HasAggregate(withAgg) {
		t.Error("aggregate should be detected")
	}
}

func TestConjunctsRoundTrip(t *testing.T) {
	p1 := &Binary{OpGt, &Column{Name: "a"}, lit(relation.Int(1))}
	p2 := &Binary{OpLt, &Column{Name: "b"}, lit(relation.Int(2))}
	p3 := &IsNull{X: &Column{Name: "c"}}
	all := AndAll([]Expr{p1, p2, p3})
	parts := Conjuncts(all)
	if len(parts) != 3 {
		t.Fatalf("Conjuncts len = %d", len(parts))
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
}

func TestTransformReplacesSubqueries(t *testing.T) {
	sub := &Subquery{Query: "fake"}
	e := &Binary{OpEq, &Column{Name: "x"}, sub}
	out := Transform(e, func(n Expr) Expr {
		if _, ok := n.(*Subquery); ok {
			return lit(relation.Int(42))
		}
		return n
	})
	v := evalOK(t, out, mapEnv{"x": relation.Int(42)})
	if !v.Truthy() {
		t.Fatalf("transformed expr = %s", v)
	}
	// original untouched
	if _, err := eval(e, ctx(mapEnv{"x": relation.Int(42)})); err == nil {
		t.Fatal("original should still contain unresolved subquery")
	}
}

func TestIsConstant(t *testing.T) {
	if !IsConstant(&Binary{OpAdd, lit(relation.Int(1)), lit(relation.Int(2))}) {
		t.Error("1+2 should be constant")
	}
	if IsConstant(&Column{Name: "x"}) {
		t.Error("column is not constant")
	}
	if IsConstant(&In{X: lit(relation.Int(1)), Source: &Subquery{}}) {
		t.Error("IN with unresolved subquery is not constant")
	}
}

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"linear_scale", "in_rectangle", "abs", "coalesce", "iif", "substr", "clamp"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("builtin %s missing", name)
		}
		if _, ok := r.Lookup(strings.ToUpper(name)); !ok {
			t.Errorf("lookup should be case-insensitive for %s", name)
		}
	}
	// arity errors
	f, _ := r.Lookup("abs")
	if _, err := f.Apply(nil); err == nil {
		t.Error("abs() with no args should error")
	}
}

func TestBuiltinFunctions(t *testing.T) {
	r := NewRegistry()
	apply := func(name string, args ...relation.Value) relation.Value {
		f, ok := r.Lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		v, err := f.Apply(args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	if v := apply("abs", relation.Float(-2)); !v.Equal(relation.Float(2)) {
		t.Errorf("abs(-2) = %s", v)
	}
	if v := apply("coalesce", relation.Null(), relation.Int(5)); !v.Equal(relation.Int(5)) {
		t.Errorf("coalesce = %s", v)
	}
	if v := apply("iif", relation.Bool(true), relation.String("a"), relation.String("b")); v.AsString() != "a" {
		t.Errorf("iif = %s", v)
	}
	if v := apply("substr", relation.String("hello"), relation.Int(2), relation.Int(3)); v.AsString() != "ell" {
		t.Errorf("substr = %s", v)
	}
	if v := apply("clamp", relation.Float(15), relation.Float(0), relation.Float(10)); !v.Equal(relation.Float(10)) {
		t.Errorf("clamp = %s", v)
	}
	if v := apply("least", relation.Int(3), relation.Null(), relation.Int(1)); !v.Equal(relation.Int(1)) {
		t.Errorf("least = %s", v)
	}
	if v := apply("greatest", relation.Int(3), relation.Int(9)); !v.Equal(relation.Int(9)) {
		t.Errorf("greatest = %s", v)
	}
	if v := apply("sign", relation.Float(-0.5)); !v.Equal(relation.Int(-1)) {
		t.Errorf("sign = %s", v)
	}
	if v := apply("length", relation.String("abc")); !v.Equal(relation.Int(3)) {
		t.Errorf("length = %s", v)
	}
}

// Property: in_rectangle is invariant under corner permutation and
// linear_scale is monotone for increasing domains.
func TestUDFProperties(t *testing.T) {
	r := NewRegistry()
	rect, _ := r.Lookup("in_rectangle")
	f := func(x, y, x0, y0, x1, y1 float64) bool {
		a, err1 := rect.Apply([]relation.Value{
			relation.Float(x), relation.Float(y), relation.Float(x0),
			relation.Float(y0), relation.Float(x1), relation.Float(y1)})
		b, err2 := rect.Apply([]relation.Value{
			relation.Float(x), relation.Float(y), relation.Float(x1),
			relation.Float(y1), relation.Float(x0), relation.Float(y0)})
		return err1 == nil && err2 == nil && a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}

	scale, _ := r.Lookup("linear_scale")
	mono := func(v1, v2 float64) bool {
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		a, _ := scale.Apply([]relation.Value{relation.Float(v1), relation.Float(0), relation.Float(100), relation.Float(0), relation.Float(400)})
		b, _ := scale.Apply([]relation.Value{relation.Float(v2), relation.Float(0), relation.Float(100), relation.Float(0), relation.Float(400)})
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return af <= bf
	}
	if err := quick.Check(mono, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
