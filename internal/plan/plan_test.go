package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/relation"
)

type memCatalog map[string]*relation.Relation

func (m memCatalog) Resolve(name string, v relation.VersionRef) (*relation.Relation, error) {
	r, ok := m[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("unknown relation %q", name)
	}
	return r, nil
}

func catalog() memCatalog {
	big := relation.New("Big", relation.NewSchema(
		relation.Col("id", relation.KindInt), relation.Col("k", relation.KindInt)))
	for i := 0; i < 100; i++ {
		big.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 7))})
	}
	small := relation.New("Small", relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col("name", relation.KindString)))
	for i := 0; i < 7; i++ {
		small.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.String(fmt.Sprintf("g%d", i))})
	}
	return memCatalog{"big": big, "small": small}
}

func build(t *testing.T, sql string) Node {
	t.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, catalog())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildShapes(t *testing.T) {
	p := build(t, "SELECT id FROM Big WHERE id > 5 ORDER BY id DESC LIMIT 3")
	// Limit(Sort(Project(Filter(Scan))))
	if _, ok := p.(*Limit); !ok {
		t.Fatalf("root = %T", p)
	}
	text := Format(p)
	for _, frag := range []string{"Limit 3", "Sort", "Project", "Filter", "Scan Big"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("plan missing %q:\n%s", frag, text)
		}
	}
}

func TestBuildAggregate(t *testing.T) {
	p := build(t, "SELECT k, count(*) AS n FROM Big GROUP BY k HAVING count(*) > 2")
	if _, ok := p.(*Aggregate); !ok {
		t.Fatalf("root = %T (%s)", p, Format(p))
	}
	if p.Schema().Len() != 2 || p.Schema().Cols[1].Name != "n" {
		t.Fatalf("schema = %s", p.Schema())
	}
}

func TestBuildRejectsBadQueries(t *testing.T) {
	cases := []string{
		"SELECT id, count(*) FROM Big GROUP BY k",        // ungrouped output
		"SELECT k FROM Big WHERE count(*) > 1",           // aggregate in WHERE
		"SELECT nope FROM Missing",                       // unknown relation
		"SELECT id FROM Big UNION SELECT k, id FROM Big", // arity mismatch
	}
	for _, sql := range cases {
		q, err := parser.ParseQuery(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := Build(q, catalog()); err == nil {
			t.Errorf("expected build error for %q", sql)
		}
	}
}

func TestOptimizePushdownAndJoinOrder(t *testing.T) {
	p := build(t, "SELECT B.id FROM Big AS B, Small AS S WHERE B.k = S.k AND B.id > 50 AND S.name != 'g0'")
	opt := Optimize(p, expr.NewRegistry())
	text := Format(opt)
	lines := strings.Split(text, "\n")
	joinLine := -1
	for i, l := range lines {
		if strings.Contains(l, "Join") {
			joinLine = i
		}
	}
	if joinLine < 0 {
		t.Fatalf("no join in optimized plan:\n%s", text)
	}
	// Single-side predicates must sit below the join.
	for i, l := range lines {
		if strings.Contains(l, "id > 50") || strings.Contains(l, "name") {
			if i < joinLine {
				t.Fatalf("predicate above join:\n%s", text)
			}
		}
	}
	// The smaller input (Small, 7 rows) becomes the left/build side.
	var scans []string
	for _, l := range lines {
		if strings.Contains(l, "Scan") {
			scans = append(scans, l)
		}
	}
	if len(scans) != 2 || !strings.Contains(scans[0], "Small") {
		t.Fatalf("join order not optimized:\n%s", text)
	}
}

func TestOptimizeConstantFolding(t *testing.T) {
	p := build(t, "SELECT id FROM Big WHERE id > 2 + 3")
	opt := Optimize(p, expr.NewRegistry())
	text := Format(opt)
	if !strings.Contains(text, "id > 5") {
		t.Fatalf("constant not folded:\n%s", text)
	}
	p2 := build(t, "SELECT id FROM Big WHERE 1 = 1")
	opt2 := Optimize(p2, expr.NewRegistry())
	if strings.Contains(Format(opt2), "Filter") {
		t.Fatalf("trivial filter kept:\n%s", Format(opt2))
	}
}

func TestOptimizeKeepsSubqueriesAboveJoin(t *testing.T) {
	// Predicates containing subqueries must not sink below joins: their
	// evaluation context is the full statement.
	p := build(t, "SELECT B.id FROM Big AS B, Small AS S WHERE B.k = S.k AND B.id > (SELECT min(k) FROM Small)")
	opt := Optimize(p, expr.NewRegistry())
	text := Format(opt)
	lines := strings.Split(text, "\n")
	joinLine, subLine := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "Join") && joinLine < 0 {
			joinLine = i
		}
		if strings.Contains(l, "SELECT ...") {
			subLine = i
		}
	}
	if subLine < 0 || joinLine < 0 || subLine > joinLine {
		t.Fatalf("subquery predicate sank below join:\n%s", text)
	}
}

// TestSplitEquiJoin pins the join-key contract the executor and the cube
// planner share: an equality conjunct is a key only when each side reads
// one input and needs no per-execution resolution; everything else,
// including constant-only sides, is residual.
func TestSplitEquiJoin(t *testing.T) {
	cat := catalog()
	ls, rs := cat["big"].Schema.Qualify("B"), cat["small"].Schema.Qualify("S")
	cases := []struct {
		name, pred  string
		left, right []string // key pairs, rendered
		residual    string   // "" for none
	}{
		{name: "nil predicate"},
		{name: "one key", pred: "B.k = S.k", left: []string{"B.k"}, right: []string{"S.k"}},
		{name: "swapped sides", pred: "S.k = B.k", left: []string{"B.k"}, right: []string{"S.k"}},
		{name: "computed key", pred: "B.k + 1 = S.k", left: []string{"(B.k + 1)"}, right: []string{"S.k"}},
		{
			name: "keys and residual", pred: "B.k = S.k AND B.id > 3 AND S.k = B.id",
			left: []string{"B.k", "B.id"}, right: []string{"S.k", "S.k"}, residual: "(B.id > 3)",
		},
		{name: "resolved IN is a key", pred: "(B.k IN (1, 2)) = S.k", left: []string{"B.k IN {2 values}"}, right: []string{"S.k"}},
		{name: "unresolved IN source", pred: "(B.k IN (SELECT k FROM Small)) = S.k", residual: "(B.k IN (SELECT ...) = S.k)"},
		{name: "subquery", pred: "B.k = S.k + (SELECT max(k) FROM Small)", residual: "(B.k = (S.k + (SELECT ...)))"},
		{name: "aggregate", pred: "sum(B.k) = S.k", residual: "(sum(B.k) = S.k)"},
		{name: "constant-only side", pred: "B.k = 3", residual: "(B.k = 3)"},
		{name: "both sides one input", pred: "B.k = B.id", residual: "(B.k = B.id)"},
		{name: "not an equality", pred: "B.k < S.k", residual: "(B.k < S.k)"},
	}
	render := func(es []expr.Expr) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.String())
		}
		return out
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var pred expr.Expr
			if c.pred != "" {
				var err error
				if pred, err = parser.ParseExpr(c.pred); err != nil {
					t.Fatal(err)
				}
			}
			lk, rk, res := SplitEquiJoin(pred, ls, rs)
			if got := render(lk); fmt.Sprint(got) != fmt.Sprint(c.left) {
				t.Errorf("left keys = %q, want %q", got, c.left)
			}
			if got := render(rk); fmt.Sprint(got) != fmt.Sprint(c.right) {
				t.Errorf("right keys = %q, want %q", got, c.right)
			}
			got := ""
			if res != nil {
				got = res.String()
			}
			if got != c.residual {
				t.Errorf("residual = %q, want %q", got, c.residual)
			}
		})
	}
}

func TestSetOpPlan(t *testing.T) {
	p := build(t, "SELECT k FROM Big MINUS SELECT k FROM Small")
	s, ok := p.(*SetOp)
	if !ok || s.Kind != SetMinus {
		t.Fatalf("root = %T", p)
	}
	if !strings.Contains(s.String(), "Minus") {
		t.Fatalf("string = %s", s.String())
	}
}

func TestSubqueryAliasSchema(t *testing.T) {
	p := build(t, "SELECT t.k FROM (SELECT k FROM Small) AS t WHERE t.k > 1")
	sch := p.Schema()
	if sch.Len() != 1 || sch.Cols[0].Name != "k" {
		t.Fatalf("schema = %s", sch)
	}
}

func TestNodeStrings(t *testing.T) {
	p := build(t, "SELECT DISTINCT k FROM Big ORDER BY k LIMIT 2")
	text := Format(Optimize(p, expr.NewRegistry()))
	for _, frag := range []string{"Distinct", "Sort", "Limit"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("missing %q:\n%s", frag, text)
		}
	}
}
