package expr

// Parity tests: the Bind-compiled evaluators must return identical values —
// including NULL propagation and errors — to the tree-walking Eval across an
// enumerated expression corpus. Eval is the semantic oracle; any divergence
// is a compiler bug.

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

// paritySchema is the row shape the corpus evaluates against.
func paritySchema() relation.Schema {
	return relation.NewSchema(
		relation.Col("i", relation.KindInt),
		relation.Col("f", relation.KindFloat),
		relation.Col("s", relation.KindString),
		relation.Col("b", relation.KindBool),
		relation.Col("n", relation.KindNull),
	)
}

// parityRows covers every kind, zeros (division/modulo by zero), negatives,
// and NULLs in each position.
func parityRows() []relation.Tuple {
	return []relation.Tuple{
		{relation.Int(3), relation.Float(1.5), relation.String("abc"), relation.Bool(true), relation.Null()},
		{relation.Int(-7), relation.Float(-0.25), relation.String(""), relation.Bool(false), relation.Null()},
		{relation.Int(0), relation.Float(0), relation.String("3"), relation.Bool(true), relation.Null()},
		{relation.Null(), relation.Null(), relation.Null(), relation.Null(), relation.Null()},
		{relation.Int(1 << 40), relation.Float(3.0), relation.String("ABC"), relation.Bool(false), relation.Null()},
	}
}

// posEnv adapts a (schema, tuple) pair to RowEnv exactly like the executor's
// old row environment did — the interpreted half of every parity check.
type posEnv struct {
	schema relation.Schema
	row    relation.Tuple
}

func (e *posEnv) Lookup(q, n string) (relation.Value, bool) {
	idx := e.schema.Index(q, n)
	if idx < 0 || idx >= len(e.row) {
		return relation.Null(), false
	}
	return e.row[idx], true
}

// corpus enumerates expressions: every binary operator over mixed-kind
// operands, unary ops, IS NULL, CASE, IN (with and without NULL in the set),
// calls (known, unknown, arity errors), aggregates in illegal positions, and
// unresolved subqueries.
func corpus() []Expr {
	col := func(n string) Expr { return &Column{Name: n} }
	lit := func(v relation.Value) Expr { return Literal(v) }
	operands := []Expr{
		col("i"), col("f"), col("s"), col("b"), col("n"),
		lit(relation.Int(2)), lit(relation.Float(0.5)), lit(relation.String("abc")),
		lit(relation.Bool(false)), lit(relation.Null()), lit(relation.Int(0)),
		&Column{Name: "missing"},           // unknown column
		&Column{Qualifier: "t", Name: "i"}, // wrong qualifier
	}
	var out []Expr
	for op := OpOr; op <= OpConcat; op++ {
		for _, l := range operands {
			for _, r := range operands {
				out = append(out, &Binary{Op: op, L: l, R: r})
			}
		}
	}
	for _, x := range operands {
		out = append(out,
			&Unary{Op: OpNeg, X: x},
			&Unary{Op: OpNot, X: x},
			&IsNull{X: x},
			&IsNull{X: x, Negate: true},
		)
	}
	set := NewValueSet(relation.Int(3), relation.String("abc"), relation.Float(1.5))
	nullSet := NewValueSet(relation.Int(3), relation.Null())
	for _, x := range operands {
		out = append(out,
			&In{X: x, Source: &SetSource{Set: set}},
			&In{X: x, Source: &SetSource{Set: nullSet}, Negate: true},
			&In{X: x, Source: &RelationSource{Name: "R"}}, // unresolved
		)
	}
	out = append(out,
		&Case{Whens: []When{{Cond: &Binary{Op: OpGt, L: col("i"), R: lit(relation.Int(0))}, Result: col("s")}}},
		&Case{
			Whens: []When{
				{Cond: col("n"), Result: lit(relation.String("null-cond"))},
				{Cond: col("b"), Result: col("f")},
			},
			Else: &Unary{Op: OpNeg, X: col("i")},
		},
		&Call{Name: "abs", Args: []Expr{col("f")}},
		&Call{Name: "upper", Args: []Expr{col("s")}},
		&Call{Name: "substr", Args: []Expr{col("s"), lit(relation.Int(2))}},
		&Call{Name: "coalesce", Args: []Expr{col("n"), col("i")}},
		&Call{Name: "iif", Args: []Expr{col("b"), col("s"), col("i")}},
		&Call{Name: "nosuchfn", Args: []Expr{col("i")}},
		&Call{Name: "abs", Args: []Expr{col("i"), col("f")}}, // arity error
		&Agg{Name: "sum", Arg: col("i")},                     // illegal position
		&Subquery{},                                          // unresolved
		// nested: (i + f) * 2 >= abs(i - 10) AND s != ''
		&Binary{Op: OpAnd,
			L: &Binary{Op: OpGe,
				L: &Binary{Op: OpMul, L: &Binary{Op: OpAdd, L: col("i"), R: col("f")}, R: lit(relation.Int(2))},
				R: &Call{Name: "abs", Args: []Expr{&Binary{Op: OpSub, L: col("i"), R: lit(relation.Int(10))}}},
			},
			R: &Binary{Op: OpNe, L: col("s"), R: lit(relation.String(""))},
		},
		// division and modulo by zero through columns
		&Binary{Op: OpDiv, L: col("f"), R: &Column{Name: "i"}},
		&Binary{Op: OpMod, L: col("i"), R: &Column{Name: "i"}},
	)
	return out
}

// TestCompiledMatchesInterpreted asserts value-and-error parity between
// Bind-compiled evaluation and the tree-walking oracle for every corpus
// expression over every parity row.
func TestCompiledMatchesInterpreted(t *testing.T) {
	schema := paritySchema()
	funcs := NewRegistry()
	bc := &BindContext{Schema: schema, Funcs: funcs}
	interpEnv := &posEnv{schema: schema}
	ictx := &Context{Row: interpEnv, Funcs: funcs}
	cenv := &Env{}
	for _, e := range corpus() {
		compiled := Bind(e, bc)
		for ri, row := range parityRows() {
			interpEnv.row = row
			cenv.Row = row
			want, wantErr := eval(e, ictx)
			got, gotErr := compiled(cenv)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("expr %s row %d: interpreted err=%v, compiled err=%v", e.String(), ri, wantErr, gotErr)
			}
			if wantErr != nil {
				continue // both error; exact text may legitimately differ
			}
			if want != got {
				t.Fatalf("expr %s row %d: interpreted=%v (%s), compiled=%v (%s)",
					e.String(), ri, want, want.Kind(), got, got.Kind())
			}
		}
	}
}

// TestCompiledThreeValuedLogic pins the full 3VL truth tables for AND/OR
// through the compiled path against the oracle.
func TestCompiledThreeValuedLogic(t *testing.T) {
	vals := []relation.Value{relation.Bool(true), relation.Bool(false), relation.Null()}
	schema := relation.NewSchema(relation.Col("l", relation.KindBool), relation.Col("r", relation.KindBool))
	funcs := NewRegistry()
	bc := &BindContext{Schema: schema, Funcs: funcs}
	interpEnv := &posEnv{schema: schema}
	ictx := &Context{Row: interpEnv, Funcs: funcs}
	cenv := &Env{}
	for _, op := range []BinOp{OpAnd, OpOr} {
		e := &Binary{Op: op, L: &Column{Name: "l"}, R: &Column{Name: "r"}}
		compiled := Bind(e, bc)
		for _, lv := range vals {
			for _, rv := range vals {
				row := relation.Tuple{lv, rv}
				interpEnv.row = row
				cenv.Row = row
				want, _ := eval(e, ictx)
				got, err := compiled(cenv)
				if err != nil {
					t.Fatalf("%s over (%s,%s): %v", e, lv, rv, err)
				}
				if want != got {
					t.Fatalf("%s over (%s,%s): interpreted=%s compiled=%s", e, lv, rv, want, got)
				}
			}
		}
	}
}

// TestCompiledAggSlots checks that aggregates bound with an AggSlot resolver
// read Env.Aggs, matching the executor's substitute-literal oracle.
func TestCompiledAggSlots(t *testing.T) {
	schema := relation.NewSchema(relation.Col("region", relation.KindString))
	funcs := NewRegistry()
	sum := &Agg{Name: "sum", Arg: &Column{Name: "x"}}
	// region || ':' || (sum(x) + 1)
	e := &Binary{Op: OpConcat,
		L: &Binary{Op: OpConcat, L: &Column{Name: "region"}, R: Literal(relation.String(":"))},
		R: &Binary{Op: OpAdd, L: sum, R: Literal(relation.Int(1))},
	}
	slots := map[string]int{sum.String(): 0}
	compiled := Bind(e, &BindContext{Schema: schema, Funcs: funcs, AggSlot: func(a *Agg) (int, bool) {
		i, ok := slots[a.String()]
		return i, ok
	}})
	env := &Env{Row: relation.Tuple{relation.String("east")}, Aggs: []relation.Value{relation.Int(41)}}
	got, err := compiled(env)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: substitute the aggregate result as a literal, then Eval.
	subst := Transform(e, func(x Expr) Expr {
		if _, ok := x.(*Agg); ok {
			return Literal(relation.Int(41))
		}
		return x
	})
	ienv := &posEnv{schema: schema, row: env.Row}
	want, err := eval(subst, &Context{Row: ienv, Funcs: funcs})
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("agg slot eval: interpreted=%s compiled=%s", want, got)
	}
}

// TestCompiledNilRowIsNull pins the group-representative semantics: with a
// nil Env.Row every column reads as NULL (the empty global aggregate).
func TestCompiledNilRowIsNull(t *testing.T) {
	schema := paritySchema()
	compiled := Bind(&IsNull{X: &Column{Name: "i"}}, &BindContext{Schema: schema, Funcs: NewRegistry()})
	got, err := compiled(&Env{})
	if err != nil {
		t.Fatal(err)
	}
	if want := relation.Bool(true); want != got {
		t.Fatalf("nil-row column: want %s, got %s", want, got)
	}
}

// TestNeedsResolution classifies subquery-bearing expressions.
func TestNeedsResolution(t *testing.T) {
	cases := []struct {
		e    Expr
		want bool
	}{
		{&Binary{Op: OpAdd, L: &Column{Name: "i"}, R: Literal(relation.Int(1))}, false},
		{&Subquery{}, true},
		{&Binary{Op: OpEq, L: &Column{Name: "i"}, R: &Subquery{}}, true},
		{&In{X: &Column{Name: "i"}, Source: &SetSource{Set: NewValueSet()}}, false},
		{&In{X: &Column{Name: "i"}, Source: &RelationSource{Name: "R"}}, true},
		{&In{X: &Column{Name: "i"}, Source: &Subquery{}}, true},
	}
	for _, c := range cases {
		if got := NeedsResolution(c.e); got != c.want {
			t.Fatalf("NeedsResolution(%s) = %v, want %v", c.e.String(), got, c.want)
		}
	}
}

// TestBindErrorsAreDeferred ensures binding never fails eagerly: an
// unresolvable column errors only when a row is actually evaluated, matching
// interpreted behaviour over empty inputs.
func TestBindErrorsAreDeferred(t *testing.T) {
	compiled := Bind(&Column{Name: "ghost"}, &BindContext{Schema: paritySchema(), Funcs: NewRegistry()})
	_, err := compiled(&Env{Row: parityRows()[0]})
	if err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("want unknown-column error, got %v", err)
	}
}

// Benchmark-ish sanity: the compiled evaluator must not allocate per call
// for a column-compare predicate (the crossfilter hot path shape).
func TestCompiledPredicateDoesNotAllocate(t *testing.T) {
	schema := paritySchema()
	e := &Binary{Op: OpAnd,
		L: &Binary{Op: OpGe, L: &Column{Name: "i"}, R: Literal(relation.Int(0))},
		R: &Binary{Op: OpLt, L: &Column{Name: "f"}, R: Literal(relation.Float(10))},
	}
	compiled := Bind(e, &BindContext{Schema: schema, Funcs: NewRegistry()})
	env := &Env{Row: parityRows()[0]}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := compiled(env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("compiled predicate allocates %.1f per eval", allocs)
	}
}

// TestCompiledCallsAreReentrant: one compiled evaluator with nested calls
// runs on eight goroutines at once, each with its own Env (the parallel tile
// build's shape), and agrees with the sequential answers; the argument stack
// unwinds after an error and, once grown, costs no allocation.
func TestCompiledCallsAreReentrant(t *testing.T) {
	call := func(name string, args ...Expr) Expr { return &Call{Name: name, Args: args} }
	e := call("pow", call("abs", &Column{Name: "i"}), call("least", Literal(relation.Int(2)), call("floor", &Column{Name: "f"})))
	compiled := Bind(e, &BindContext{Schema: paritySchema(), Funcs: NewRegistry()})
	rows := make([]relation.Tuple, 64)
	want := make([]relation.Value, len(rows))
	env := &Env{}
	for i := range rows {
		rows[i] = relation.Tuple{relation.Int(int64(i - 32)), relation.Float(float64(i%5) + 0.5)}
		env.Row = rows[i]
		v, err := compiled(env)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := &Env{}
			for n := 0; n < 200; n++ {
				for i, row := range rows {
					env.Row = row
					if v, err := compiled(env); err != nil || v != want[i] {
						t.Errorf("row %d: got %v, %v; want %v", i, v, err, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	bad := Bind(call("pow", &Column{Name: "i"}, call("abs", &Column{Name: "s"})), &BindContext{Schema: paritySchema(), Funcs: NewRegistry()})
	env.Row = parityRows()[0]
	if _, err := bad(env); err == nil || len(env.args) != 0 {
		t.Fatalf("failed call: err %v, %d arguments left on the stack", err, len(env.args))
	}
	env.Row = rows[0]
	if allocs := testing.AllocsPerRun(100, func() { compiled(env) }); allocs > 0 {
		t.Fatalf("compiled call allocates %.1f per eval", allocs)
	}
}

// fuzzTree builds an expression over paritySchema from fuzz bytes. Each node
// takes one byte for its kind and more for its operator, operands or arity;
// when the bytes run out, or at depth 4, it builds a leaf. It can produce
// every BinOp, both Unary operators, IS [NOT] NULL, CASE with and without
// ELSE, known, unknown and wrong-arity calls (coalesce among them), IN over
// sets that hold NULL and values that collide across Int and Float, and
// columns the schema lacks.
type fuzzTree struct {
	data []byte
}

func (f *fuzzTree) next() (int, bool) {
	if len(f.data) == 0 {
		return 0, false
	}
	b := int(f.data[0])
	f.data = f.data[1:]
	return b, true
}

func (f *fuzzTree) pick(n int) int {
	b, _ := f.next()
	return b % n
}

var (
	fuzzColumns = []*Column{
		{Name: "i"}, {Name: "f"}, {Name: "s"}, {Name: "b"}, {Name: "n"},
		{Name: "missing"}, {Qualifier: "t", Name: "i"}, // unknown, wrong qualifier
	}
	fuzzLits = []relation.Value{
		relation.Int(0), relation.Int(2), relation.Int(3), relation.Int(-7),
		relation.Float(0), relation.Float(0.5), relation.Float(1.5), relation.Float(3),
		relation.String("abc"), relation.String("3"), relation.String(""),
		relation.Bool(true), relation.Bool(false), relation.Null(),
	}
	fuzzFuncs = []string{"abs", "sqrt", "ln", "pow", "least", "greatest", "upper", "substr", "coalesce", "iif", "clamp", "nosuchfn"}
	fuzzSets  = []*ValueSet{
		NewValueSet(relation.Int(3), relation.Float(1.5), relation.String("abc")),
		NewValueSet(relation.Int(3), relation.Null()),
		NewValueSet(relation.Float(3), relation.Float(-7), relation.Null()),
		NewValueSet(),
	}
)

func (f *fuzzTree) build(depth int) Expr {
	kind, ok := f.next()
	if !ok || depth >= 4 {
		kind %= 2 // leaf: column or literal
	}
	switch kind % 8 {
	case 0:
		return fuzzColumns[f.pick(len(fuzzColumns))]
	case 1:
		return Literal(fuzzLits[f.pick(len(fuzzLits))])
	case 2:
		op := BinOp(f.pick(int(OpConcat) + 1))
		return &Binary{Op: op, L: f.build(depth + 1), R: f.build(depth + 1)}
	case 3:
		return &Unary{Op: UnOp(f.pick(2)), X: f.build(depth + 1)}
	case 4:
		return &IsNull{X: f.build(depth + 1), Negate: f.pick(2) == 1}
	case 5:
		c := &Case{}
		for n := 1 + f.pick(3); n > 0; n-- {
			c.Whens = append(c.Whens, When{Cond: f.build(depth + 1), Result: f.build(depth + 1)})
		}
		if f.pick(2) == 1 {
			c.Else = f.build(depth + 1)
		}
		return c
	case 6:
		c := &Call{Name: fuzzFuncs[f.pick(len(fuzzFuncs))]}
		for n := f.pick(4); n > 0; n-- {
			c.Args = append(c.Args, f.build(depth+1))
		}
		return c
	default:
		return &In{X: f.build(depth + 1), Source: &SetSource{Set: fuzzSets[f.pick(len(fuzzSets))]}, Negate: f.pick(2) == 1}
	}
}

// sameValue is value equality that also equates two NaNs (sqrt and ln of
// negative operands produce them on both sides).
func sameValue(a, b relation.Value) bool {
	if a == b {
		return true
	}
	fa, _ := a.AsFloat()
	fb, _ := b.AsFloat()
	return a.Kind() == relation.KindFloat && b.Kind() == relation.KindFloat && math.IsNaN(fa) && math.IsNaN(fb)
}

// FuzzExprCompile holds Bind to the reference evaluator on fuzz-built trees:
// over every parity row, both must return the same value or both must fail.
func FuzzExprCompile(f *testing.F) {
	for _, seed := range [][]byte{
		{2, 2, 0, 0, 1, 7},             // i = 3.0
		{2, 2, 0, 1, 1, 2},             // f = 3
		{7, 0, 0, 2, 1},                // i NOT IN {3.0, -7.0, NULL}
		{6, 8, 2, 0, 4, 0, 0},          // coalesce(n, i)
		{6, 11, 1, 0, 0},               // nosuchfn(i)
		{5, 0, 0, 3, 0, 2, 1, 1, 13},   // CASE WHEN b THEN s ELSE NULL END
		{3, 1, 4, 0, 4},                // NOT n IS NULL
		{2, 0, 2, 1, 0, 5, 0, 0, 0, 6}, // (missing AND i) OR t.i
		{2, 13, 0, 2, 1, 10},           // s || ''
		{2, 11, 0, 0, 1, 0},            // i / 0
		{3, 0, 6, 1, 1, 0, 0},          // -sqrt(i)
	} {
		f.Add(seed)
	}
	schema := paritySchema()
	funcs := NewRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		e := (&fuzzTree{data: data}).build(0)
		compiled := Bind(e, &BindContext{Schema: schema, Funcs: funcs})
		ref := &posEnv{schema: schema}
		ictx := &Context{Row: ref, Funcs: funcs}
		env := &Env{}
		for ri, row := range parityRows() {
			ref.row, env.Row = row, row
			want, wantErr := eval(e, ictx)
			got, gotErr := compiled(env)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("expr %s row %d: reference err=%v, compiled err=%v", e, ri, wantErr, gotErr)
			}
			if wantErr == nil && !sameValue(want, got) {
				t.Fatalf("expr %s row %d: reference=%v (%s), compiled=%v (%s)", e, ri, want, want.Kind(), got, got.Kind())
			}
		}
	})
}
