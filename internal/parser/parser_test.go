package parser

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
)

func parseOne(t *testing.T, src string) Statement {
	t.Helper()
	stmts, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("expected 1 statement, got %d", len(stmts))
	}
	return stmts[0]
}

func TestParseCreateTable(t *testing.T) {
	s := parseOne(t, "CREATE TABLE Sales (productId int, price float, profit float, revenue float, productName string)")
	ct, ok := s.(*CreateTableStmt)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ct.Name != "Sales" || ct.Schema.Len() != 5 {
		t.Fatalf("table = %s %s", ct.Name, ct.Schema)
	}
	if ct.Schema.Cols[1].Kind != relation.KindFloat {
		t.Fatal("price should be float")
	}
}

func TestParseInsertValues(t *testing.T) {
	s := parseOne(t, "INSERT INTO Sales VALUES (1, 9.99, 2.5, 100, 'widget'), (2, 19.99, 5.0, 200, 'gadget')")
	ins := s.(*InsertStmt)
	if ins.Table != "Sales" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 5 {
		t.Fatalf("insert = %+v", ins)
	}
}

func TestParseInsertSelect(t *testing.T) {
	s := parseOne(t, "INSERT INTO Archive SELECT * FROM Sales WHERE revenue > 100")
	ins := s.(*InsertStmt)
	if ins.Query == nil {
		t.Fatal("expected INSERT ... SELECT")
	}
}

// DeVIL 1 from the paper: the static scatterplot view. linear_scale here
// takes explicit domain/range bounds.
func TestParseDeVIL1(t *testing.T) {
	src := `
SPLOT_POINTS =
  SELECT
    8 AS radius,
    'gray' AS stroke,
    'gray' AS fill,
    linear_scale(Sales.revenue, sx.lo, sx.hi, 0, 400) AS center_x,
    linear_scale(Sales.profit, sy.lo, sy.hi, 0, 300) AS center_y,
    productId
  FROM Sales, scale_x AS sx, scale_y AS sy;
P = render(SELECT * FROM SPLOT_POINTS);`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("got %d statements", len(stmts))
	}
	a := stmts[0].(*AssignStmt)
	if a.Name != "SPLOT_POINTS" {
		t.Fatalf("name = %s", a.Name)
	}
	sel := a.Query.(*SelectStmt)
	if len(sel.Items) != 6 || len(sel.From) != 3 {
		t.Fatalf("items=%d from=%d", len(sel.Items), len(sel.From))
	}
	if sel.Items[3].Alias != "center_x" {
		t.Fatalf("alias = %s", sel.Items[3].Alias)
	}
	if sel.From[1].Alias != "sx" || sel.From[1].Name != "scale_x" {
		t.Fatalf("from[1] = %+v", sel.From[1])
	}
	r := stmts[1].(*AssignStmt)
	if _, ok := r.Query.(*RenderStmt); !ok {
		t.Fatalf("render stmt = %T", r.Query)
	}
}

// DeVIL 2 from the paper: the compound event statement, verbatim.
func TestParseDeVIL2(t *testing.T) {
	src := `
C =
 EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
 WHERE FORALL m IN M m.y > 5
 RETURN
   (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
   (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy)`
	s := parseOne(t, src)
	ev, ok := s.(*EventStmt)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ev.Name != "C" {
		t.Fatalf("name = %s", ev.Name)
	}
	if len(ev.Seq) != 3 {
		t.Fatalf("seq len = %d", len(ev.Seq))
	}
	if ev.Seq[0].Type != "MOUSE_DOWN" || ev.Seq[0].Alias != "D" || ev.Seq[0].Kleene {
		t.Fatalf("seq[0] = %+v", ev.Seq[0])
	}
	if ev.Seq[1].Type != "MOUSE_MOVE" || !ev.Seq[1].Kleene || ev.Seq[1].Alias != "M" {
		t.Fatalf("seq[1] = %+v", ev.Seq[1])
	}
	if len(ev.Filters) != 1 || ev.Filters[0].Quant != QuantForall ||
		ev.Filters[0].Var != "m" || ev.Filters[0].Over != "M" {
		t.Fatalf("filters = %+v", ev.Filters)
	}
	if len(ev.Return) != 2 || len(ev.Return[0]) != 5 || len(ev.Return[1]) != 5 {
		t.Fatalf("return groups = %d", len(ev.Return))
	}
	if ev.Return[1][3].Alias != "dx" {
		t.Fatalf("return[1][3] alias = %s", ev.Return[1][3].Alias)
	}
}

// DeVIL 3 from the paper: selection via join with a versioned relation plus
// the UNION redefinition of the scatterplot.
func TestParseDeVIL3(t *testing.T) {
	src := `
selected = SELECT SP.productId
  FROM C, SPLOT_POINTS@vnow-1 AS SP
  WHERE in_rectangle(SP.center_x, SP.center_y,
        (SELECT min(x + dx) FROM C), (SELECT min(y + dy) FROM C),
        (SELECT max(x + dx) FROM C), (SELECT max(y + dy) FROM C));
SPLOT_POINTS = SELECT productId, 'gray' AS fill
  FROM Sales WHERE productId NOT IN selected
  UNION
  SELECT productId, 'red' AS fill
  FROM Sales WHERE productId IN selected`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmts[0].(*AssignStmt).Query.(*SelectStmt)
	if sel.From[1].Name != "SPLOT_POINTS" || sel.From[1].Alias != "SP" {
		t.Fatalf("from[1] = %+v", sel.From[1])
	}
	v := sel.From[1].Version
	if v.Kind != relation.VersionVNow || v.Offset != 1 {
		t.Fatalf("version = %+v", v)
	}
	union, ok := stmts[1].(*AssignStmt).Query.(*SetOp)
	if !ok || union.Op != SetUnion || union.All {
		t.Fatalf("second stmt = %+v", stmts[1])
	}
	left := union.L.(*SelectStmt)
	in, ok := left.Where.(*expr.In)
	if !ok || !in.Negate {
		t.Fatalf("where = %v", left.Where)
	}
	if rs, ok := in.Source.(*expr.RelationSource); !ok || rs.Name != "selected" {
		t.Fatalf("in source = %+v", in.Source)
	}
}

// DeVIL 4 from the paper: provenance-based linked brushing with BACKWARD
// TRACE and MINUS, including the ▷ comment marker.
func TestParseDeVIL4(t *testing.T) {
	src := `
B = BACKWARD TRACE
  FROM SPLOT_POINTS@vnow-1 AS SP, C
  WHERE in_rectangle(SP.center_x, SP.center_y, 0, 0, 100, 100)
  TO Sales;
▷ SPLOT_POINTS without productId
SPLOT_POINTS = SELECT productId, 'red' AS fill FROM B
  UNION
  SELECT productId, 'gray' AS fill FROM (Sales MINUS B) AS rest`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tr := stmts[0].(*AssignStmt).Query.(*TraceStmt)
	if !tr.Backward || tr.To != "Sales" || len(tr.From) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.From[0].Version.Kind != relation.VersionVNow {
		t.Fatal("versioned trace input lost")
	}
	union := stmts[1].(*AssignStmt).Query.(*SetOp)
	right := union.R.(*SelectStmt)
	sub, ok := right.From[0].Sub.(*SetOp)
	if !ok || sub.Op != SetMinus {
		t.Fatalf("expected (Sales MINUS B) subquery, got %+v", right.From[0])
	}
}

func TestParseBracedVersionAndTnow(t *testing.T) {
	s := parseOne(t, "x = SELECT * FROM Marks@{vnow-1}")
	sel := s.(*AssignStmt).Query.(*SelectStmt)
	if sel.From[0].Version != relation.VNow(1) {
		t.Fatalf("version = %+v", sel.From[0].Version)
	}
	s2 := parseOne(t, "x = SELECT * FROM C@tnow-2")
	sel2 := s2.(*AssignStmt).Query.(*SelectStmt)
	if sel2.From[0].Version != relation.TNow(2) {
		t.Fatalf("version = %+v", sel2.From[0].Version)
	}
}

func TestParseGroupByHavingOrderLimit(t *testing.T) {
	s := parseOne(t, `x = SELECT region, sum(revenue) AS total FROM Sales
		WHERE year >= 1997 GROUP BY region HAVING sum(revenue) > 10
		ORDER BY total DESC, region LIMIT 5`)
	sel := s.(*AssignStmt).Query.(*SelectStmt)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("groupby/having missing: %+v", sel)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("orderby = %+v", sel.OrderBy)
	}
	if sel.Limit != 5 {
		t.Fatalf("limit = %d", sel.Limit)
	}
	if !expr.HasAggregate(sel.Items[1].Expr) {
		t.Fatal("sum aggregate not detected")
	}
}

func TestParseCaseAndBetween(t *testing.T) {
	s := parseOne(t, `x = SELECT CASE WHEN v BETWEEN 1 AND 5 THEN 'low' ELSE 'high' END AS bucket FROM T`)
	sel := s.(*AssignStmt).Query.(*SelectStmt)
	if _, ok := sel.Items[0].Expr.(*expr.Case); !ok {
		t.Fatalf("expected case expr, got %T", sel.Items[0].Expr)
	}
}

func TestParseDistinctAndStar(t *testing.T) {
	s := parseOne(t, "x = SELECT DISTINCT S.*, 1 AS one FROM Sales AS S")
	sel := s.(*AssignStmt).Query.(*SelectStmt)
	if !sel.Distinct {
		t.Fatal("distinct lost")
	}
	if !sel.Items[0].Star || sel.Items[0].StarQualifier != "S" {
		t.Fatalf("qualified star = %+v", sel.Items[0])
	}
}

func TestParseInLiteralList(t *testing.T) {
	s := parseOne(t, "x = SELECT * FROM T WHERE v IN (1, 2, 3)")
	sel := s.(*AssignStmt).Query.(*SelectStmt)
	in := sel.Where.(*expr.In)
	set, ok := in.Source.(*expr.SetSource)
	if !ok || set.Set.Len() != 3 {
		t.Fatalf("in source = %+v", in.Source)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x =",
		"SELECT FROM t",
		"x = SELECT * FROM",
		"CREATE TABLE t (a unknowntype)",
		"x = EVENT MOUSE_DOWN AS D RETURN",
		"x = SELECT * FROM t WHERE v IN",
		"x = SELECT * FROM (SELECT a FROM t)", // subquery needs alias
		"x = SELECT * FROM t@bogus-1",
		"x = BACKWARD TRACE FROM t TO",
		"insert into t values",
		"x = SELECT sum(*) FROM t",
		"x = EVENT MOUSE_DOWN AS D WHERE FORALL m IN Z m.y > 1 RETURN (D.t)",
		"x = 'unterminated",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `-- line comment
// another comment
▷ paper-style comment
x = SELECT 1 AS a`
	s := parseOne(t, src)
	if s.(*AssignStmt).Name != "x" {
		t.Fatal("comment handling broke parsing")
	}
}

func TestParseMultiStatementProgram(t *testing.T) {
	src := `CREATE TABLE t (a int);
INSERT INTO t VALUES (1);
v = SELECT a FROM t;
P = render(v, 'circle');`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("got %d statements", len(stmts))
	}
	r := stmts[3].(*AssignStmt).Query.(*RenderStmt)
	if r.MarkType != "circle" {
		t.Fatalf("mark type = %s", r.MarkType)
	}
	if _, ok := r.Inner.(*RelRefQuery); !ok {
		t.Fatalf("render inner = %T", r.Inner)
	}
}

func TestQueryString(t *testing.T) {
	s := parseOne(t, "x = SELECT a, b AS c FROM t@vnow-1 AS u WHERE a > 1 UNION SELECT a, b FROM t")
	str := QueryString(s.(*AssignStmt).Query)
	for _, frag := range []string{"SELECT", "UNION", "t@vnow-1", "AS c", "WHERE"} {
		if !strings.Contains(str, frag) {
			t.Errorf("QueryString missing %q in %q", frag, str)
		}
	}
}

func TestParseDeleteStmt(t *testing.T) {
	s := parseOne(t, "DELETE FROM t WHERE a > 5")
	del := s.(*DeleteStmt)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
}

func TestLexerNumbersAndQualifiedRefs(t *testing.T) {
	// "C.t" must not lex as a float; "1.5" must.
	e, err := ParseExpr("C.t + 1.5")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*expr.Binary)
	if c, ok := b.L.(*expr.Column); !ok || c.Qualifier != "C" || c.Name != "t" {
		t.Fatalf("left = %v", b.L)
	}
	if l, ok := b.R.(*expr.Lit); !ok || l.V.String() != "1.5" {
		t.Fatalf("right = %v", b.R)
	}
}

func TestStringEscapes(t *testing.T) {
	e, err := ParseExpr("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*expr.Lit).V.AsString() != "it's" {
		t.Fatalf("escaped string = %q", e.(*expr.Lit).V.AsString())
	}
}

func TestOperatorPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3 = 7 AND NOT false")
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Eval(&expr.Context{Funcs: expr.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Truthy() {
		t.Fatalf("precedence eval = %s", v)
	}
}
