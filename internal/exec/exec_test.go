package exec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

// memCatalog is a version-blind in-memory catalog for executor tests.
type memCatalog map[string]*relation.Relation

func (m memCatalog) Resolve(name string, v relation.VersionRef) (*relation.Relation, error) {
	r, ok := m[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("unknown relation %q", name)
	}
	return r, nil
}

func salesCatalog() memCatalog {
	sales := relation.New("Sales", relation.NewSchema(
		relation.Col("productId", relation.KindInt),
		relation.Col("region", relation.KindString),
		relation.Col("revenue", relation.KindFloat),
		relation.Col("profit", relation.KindFloat),
	))
	rows := []struct {
		id      int64
		region  string
		rev, pr float64
	}{
		{1, "east", 100, 10},
		{2, "east", 200, 30},
		{3, "west", 150, -5},
		{4, "west", 300, 60},
		{5, "north", 50, 5},
	}
	for _, r := range rows {
		sales.MustAppend(relation.Tuple{
			relation.Int(r.id), relation.String(r.region),
			relation.Float(r.rev), relation.Float(r.pr),
		})
	}
	regions := relation.New("Regions", relation.NewSchema(
		relation.Col("name", relation.KindString),
		relation.Col("country", relation.KindString),
	))
	regions.MustAppend(relation.Tuple{relation.String("east"), relation.String("US")})
	regions.MustAppend(relation.Tuple{relation.String("west"), relation.String("US")})
	regions.MustAppend(relation.Tuple{relation.String("north"), relation.String("CA")})
	us := relation.New("USRegions", relation.NewSchema(relation.Col("name", relation.KindString)))
	us.MustAppend(relation.Tuple{relation.String("east")})
	us.MustAppend(relation.Tuple{relation.String("west")})
	return memCatalog{"sales": sales, "regions": regions, "usregions": us}
}

func runSQL(t *testing.T, cat memCatalog, sql string) *relation.Relation {
	t.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	ex := New(cat)
	res, err := ex.RunQuery(q)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return res.Rel
}

func TestSelectWhereProject(t *testing.T) {
	rel := runSQL(t, salesCatalog(), "SELECT productId, revenue * 2 AS dbl FROM Sales WHERE revenue >= 150")
	if rel.Len() != 3 {
		t.Fatalf("rows = %d, want 3", rel.Len())
	}
	if rel.Schema.Cols[1].Name != "dbl" {
		t.Fatalf("schema = %s", rel.Schema)
	}
	rel.SortDeterministic()
	if v, _ := rel.Rows[0][1].AsFloat(); v != 400 {
		t.Fatalf("first dbl = %v", rel.Rows[0][1])
	}
}

func TestConstantSelect(t *testing.T) {
	rel := runSQL(t, salesCatalog(), "SELECT 1 + 2 AS three, 'x' AS s")
	if rel.Len() != 1 || !rel.Rows[0][0].Equal(relation.Int(3)) {
		t.Fatalf("constant select = %v", rel.Rows)
	}
}

func TestHashJoin(t *testing.T) {
	rel := runSQL(t, salesCatalog(),
		"SELECT S.productId, R.country FROM Sales AS S, Regions AS R WHERE S.region = R.name AND S.revenue > 100")
	if rel.Len() != 3 {
		t.Fatalf("join rows = %d, want 3", rel.Len())
	}
	countries := map[string]bool{}
	for _, row := range rel.Rows {
		countries[row[1].AsString()] = true
	}
	if !countries["US"] {
		t.Fatal("expected US rows in join")
	}
}

func TestCrossJoinCount(t *testing.T) {
	rel := runSQL(t, salesCatalog(), "SELECT count(*) AS n FROM Sales AS a, Regions AS b")
	if n, _ := rel.Rows[0][0].AsInt(); n != 15 {
		t.Fatalf("cross join count = %d, want 15", n)
	}
}

func TestGroupByAggregates(t *testing.T) {
	rel := runSQL(t, salesCatalog(),
		"SELECT region, sum(revenue) AS total, count(*) AS n, avg(profit) AS ap, min(revenue) AS lo, max(revenue) AS hi FROM Sales GROUP BY region ORDER BY region")
	if rel.Len() != 3 {
		t.Fatalf("groups = %d", rel.Len())
	}
	// ordered: east, north, west
	east := rel.Rows[0]
	if east[0].AsString() != "east" {
		t.Fatalf("first group = %s", east[0])
	}
	if v, _ := east[1].AsFloat(); v != 300 {
		t.Fatalf("east total = %v", east[1])
	}
	if n, _ := east[2].AsInt(); n != 2 {
		t.Fatalf("east count = %v", east[2])
	}
	if v, _ := east[3].AsFloat(); v != 20 {
		t.Fatalf("east avg profit = %v", east[3])
	}
	west := rel.Rows[2]
	if lo, _ := west[4].AsFloat(); lo != 150 {
		t.Fatalf("west min = %v", west[4])
	}
	if hi, _ := west[5].AsFloat(); hi != 300 {
		t.Fatalf("west max = %v", west[5])
	}
}

func TestHaving(t *testing.T) {
	rel := runSQL(t, salesCatalog(),
		"SELECT region, sum(revenue) AS total FROM Sales GROUP BY region HAVING sum(revenue) > 200")
	if rel.Len() != 2 {
		t.Fatalf("having kept %d groups, want 2 (east=300, west=450)", rel.Len())
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	cat := salesCatalog()
	rel := runSQL(t, cat, "SELECT count(*) AS n, sum(revenue) AS s FROM Sales WHERE revenue > 9999")
	if rel.Len() != 1 {
		t.Fatalf("global aggregate rows = %d, want 1", rel.Len())
	}
	if n, _ := rel.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("count = %v", rel.Rows[0][0])
	}
	if !rel.Rows[0][1].IsNull() {
		t.Fatalf("sum of empty = %v, want NULL", rel.Rows[0][1])
	}
}

func TestCountDistinct(t *testing.T) {
	rel := runSQL(t, salesCatalog(), "SELECT count(DISTINCT region) AS n FROM Sales")
	if n, _ := rel.Rows[0][0].AsInt(); n != 3 {
		t.Fatalf("count distinct = %d, want 3", n)
	}
}

func TestOrderByDescLimit(t *testing.T) {
	rel := runSQL(t, salesCatalog(), "SELECT productId, revenue FROM Sales ORDER BY revenue DESC LIMIT 2")
	if rel.Len() != 2 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if id, _ := rel.Rows[0][0].AsInt(); id != 4 {
		t.Fatalf("top row = %v", rel.Rows[0])
	}
	if id, _ := rel.Rows[1][0].AsInt(); id != 2 {
		t.Fatalf("second row = %v", rel.Rows[1])
	}
}

func TestOrderByAlias(t *testing.T) {
	rel := runSQL(t, salesCatalog(),
		"SELECT region, sum(revenue) AS total FROM Sales GROUP BY region ORDER BY total DESC")
	if rel.Rows[0][0].AsString() != "west" {
		t.Fatalf("order by alias: first = %s", rel.Rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	rel := runSQL(t, salesCatalog(), "SELECT DISTINCT region FROM Sales")
	if rel.Len() != 3 {
		t.Fatalf("distinct rows = %d", rel.Len())
	}
}

func TestUnionDedupAndAll(t *testing.T) {
	dedup := runSQL(t, salesCatalog(),
		"SELECT region FROM Sales UNION SELECT region FROM Sales")
	if dedup.Len() != 3 {
		t.Fatalf("union rows = %d, want 3", dedup.Len())
	}
	all := runSQL(t, salesCatalog(),
		"SELECT region FROM Sales UNION ALL SELECT region FROM Sales")
	if all.Len() != 10 {
		t.Fatalf("union all rows = %d, want 10", all.Len())
	}
}

func TestMinusIntersect(t *testing.T) {
	minus := runSQL(t, salesCatalog(),
		"SELECT region FROM Sales MINUS SELECT name FROM Regions WHERE country = 'CA'")
	if minus.Len() != 2 {
		t.Fatalf("minus rows = %d, want 2 (east, west)", minus.Len())
	}
	inter := runSQL(t, salesCatalog(),
		"SELECT region FROM Sales INTERSECT SELECT name FROM Regions WHERE country = 'US'")
	if inter.Len() != 2 {
		t.Fatalf("intersect rows = %d, want 2", inter.Len())
	}
}

func TestScalarSubquery(t *testing.T) {
	rel := runSQL(t, salesCatalog(),
		"SELECT productId FROM Sales WHERE revenue = (SELECT max(revenue) FROM Sales)")
	if rel.Len() != 1 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if id, _ := rel.Rows[0][0].AsInt(); id != 4 {
		t.Fatalf("max revenue product = %d", id)
	}
}

func TestScalarSubqueryMultipleRowsErrors(t *testing.T) {
	q, err := parser.ParseQuery("SELECT (SELECT revenue FROM Sales) AS x")
	if err != nil {
		t.Fatal(err)
	}
	ex := New(salesCatalog())
	if _, err := ex.RunQuery(q); err == nil {
		t.Fatal("multi-row scalar subquery should error")
	}
}

func TestInSubqueryAndRelation(t *testing.T) {
	rel := runSQL(t, salesCatalog(),
		"SELECT productId FROM Sales WHERE region IN (SELECT name FROM Regions WHERE country = 'US')")
	if rel.Len() != 4 {
		t.Fatalf("IN subquery rows = %d, want 4", rel.Len())
	}
	// IN over a bare relation reads its first column (DeVIL 3 style:
	// "productId NOT IN selected").
	rel2 := runSQL(t, salesCatalog(),
		"SELECT productId FROM Sales WHERE region IN USRegions")
	if rel2.Len() != 4 {
		t.Fatalf("IN relation rows = %d, want 4", rel2.Len())
	}
}

func TestNotInExcludes(t *testing.T) {
	rel := runSQL(t, salesCatalog(),
		"SELECT productId FROM Sales WHERE region NOT IN (SELECT name FROM Regions WHERE country = 'CA')")
	if rel.Len() != 4 {
		t.Fatalf("NOT IN rows = %d, want 4", rel.Len())
	}
}

func TestSubqueryInFrom(t *testing.T) {
	rel := runSQL(t, salesCatalog(),
		"SELECT t.region, t.total FROM (SELECT region, sum(revenue) AS total FROM Sales GROUP BY region) AS t WHERE t.total > 200")
	if rel.Len() != 2 {
		t.Fatalf("rows = %d, want 2", rel.Len())
	}
}

func TestStarExpansion(t *testing.T) {
	rel := runSQL(t, salesCatalog(), "SELECT * FROM Sales WHERE productId = 1")
	if rel.Schema.Len() != 4 || rel.Len() != 1 {
		t.Fatalf("star: schema=%d rows=%d", rel.Schema.Len(), rel.Len())
	}
	rel2 := runSQL(t, salesCatalog(),
		"SELECT S.* FROM Sales AS S, Regions AS R WHERE S.region = R.name AND R.country = 'CA'")
	if rel2.Schema.Len() != 4 || rel2.Len() != 1 {
		t.Fatalf("qualified star: schema=%d rows=%d", rel2.Schema.Len(), rel2.Len())
	}
}

func TestCaseInProjection(t *testing.T) {
	rel := runSQL(t, salesCatalog(),
		"SELECT productId, CASE WHEN profit < 0 THEN 'loss' ELSE 'gain' END AS kind FROM Sales ORDER BY productId")
	if rel.Rows[2][1].AsString() != "loss" {
		t.Fatalf("case output = %v", rel.Rows[2])
	}
	if rel.Rows[0][1].AsString() != "gain" {
		t.Fatalf("case output = %v", rel.Rows[0])
	}
}

func TestLineageCapture(t *testing.T) {
	cat := salesCatalog()
	q, err := parser.ParseQuery("SELECT region, sum(revenue) AS total FROM Sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	ex := New(cat)
	ex.CaptureLineage = true
	res, err := ex.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lin) != res.Rel.Len() {
		t.Fatalf("lineage parallel array mismatch: %d vs %d", len(res.Lin), res.Rel.Len())
	}
	// The east group must trace to exactly Sales rows 0 and 1.
	for i, row := range res.Rel.Rows {
		if row[0].AsString() == "east" {
			src := res.Lin[i]["Sales"]
			if len(src) != 2 {
				t.Fatalf("east lineage = %v", src)
			}
			got := map[int]bool{src[0]: true, src[1]: true}
			if !got[0] || !got[1] {
				t.Fatalf("east lineage rows = %v, want {0,1}", src)
			}
		}
	}
}

// TestLineageFoldLinear: operators that fold many input rows into one output
// row (a one-group aggregate, DISTINCT, UNION) hold each contributing index
// once per scan, and capture cost grows linearly with the group: the bytes
// allocated at 20k rows stay within 6× those at 5k, where copying the
// accumulated lineage for every input row would take ~16×.
func TestLineageFoldLinear(t *testing.T) {
	run := func(query string, n int) (Lineage, uint64) {
		t.Helper()
		rel := relation.New("T", relation.NewSchema(relation.Col("v", relation.KindInt)))
		for i := 0; i < n; i++ {
			rel.MustAppend(relation.Tuple{relation.Int(1)})
		}
		q, err := parser.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		ex := New(memCatalog{"t": rel})
		ex.CaptureLineage = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := ex.RunQuery(q)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Lin) != 1 {
			t.Fatalf("%s: %d output rows, want 1", query, len(res.Lin))
		}
		return res.Lin[0], after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		query string
		sides int // how many times the query scans T
	}{
		{"SELECT count(*) AS n FROM T", 1},
		{"SELECT DISTINCT v FROM T", 1},
		{"SELECT v FROM T UNION SELECT v FROM T", 2},
	} {
		small, smallBytes := run(tc.query, 5000)
		large, largeBytes := run(tc.query, 20000)
		for n, lin := range map[int]Lineage{5000: small, 20000: large} {
			seen := make(map[int]int, n)
			for _, i := range lin["T"] {
				seen[i]++
			}
			if len(lin["T"]) != tc.sides*n || len(seen) != n {
				t.Fatalf("%s at %d rows: lineage holds %d indices (%d distinct), want %d (%d distinct)",
					tc.query, n, len(lin["T"]), len(seen), tc.sides*n, n)
			}
		}
		if largeBytes > 6*smallBytes {
			t.Fatalf("%s: %d B allocated at 20k rows, %d B at 5k (%.1f×); want ≤ 6×",
				tc.query, largeBytes, smallBytes, float64(largeBytes)/float64(smallBytes))
		}
	}
}

func TestLineageThroughJoin(t *testing.T) {
	cat := salesCatalog()
	q, err := parser.ParseQuery(
		"SELECT S.productId FROM Sales AS S, Regions AS R WHERE S.region = R.name AND R.country = 'CA'")
	if err != nil {
		t.Fatal(err)
	}
	ex := New(cat)
	ex.CaptureLineage = true
	res, err := ex.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1 {
		t.Fatalf("rows = %d", res.Rel.Len())
	}
	lin := res.Lin[0]
	if len(lin["Sales"]) != 1 || lin["Sales"][0] != 4 {
		t.Fatalf("Sales lineage = %v, want [4]", lin["Sales"])
	}
	if len(lin["Regions"]) != 1 || lin["Regions"][0] != 2 {
		t.Fatalf("Regions lineage = %v, want [2]", lin["Regions"])
	}
}

func TestOptimizerPushdownShape(t *testing.T) {
	cat := salesCatalog()
	q, err := parser.ParseQuery(
		"SELECT S.productId FROM Sales AS S, Regions AS R WHERE S.region = R.name AND S.revenue > 100 AND R.country = 'US'")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := plan.Optimize(p, New(cat).Funcs)
	text := plan.Format(opt)
	// After pushdown the single-side predicates must appear below the join.
	joinLine, revLine, ctyLine := -1, -1, -1
	for i, line := range strings.Split(text, "\n") {
		switch {
		case strings.Contains(line, "Join"):
			joinLine = i
		case strings.Contains(line, "revenue"):
			revLine = i
		case strings.Contains(line, "country"):
			ctyLine = i
		}
	}
	if joinLine < 0 || revLine < joinLine || ctyLine < joinLine {
		t.Fatalf("pushdown failed:\n%s", text)
	}
	// And the plan still runs correctly.
	res, err := New(cat).Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Fatalf("optimized plan rows = %d, want 3", res.Rel.Len())
	}
}

func TestConstantFolding(t *testing.T) {
	cat := salesCatalog()
	q, err := parser.ParseQuery("SELECT productId FROM Sales WHERE 1 + 1 = 2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := plan.Optimize(p, New(cat).Funcs)
	if strings.Contains(plan.Format(opt), "Filter") {
		t.Fatalf("always-true filter not removed:\n%s", plan.Format(opt))
	}
}

func TestAmbiguousColumnErrors(t *testing.T) {
	cat := salesCatalog()
	q, err := parser.ParseQuery("SELECT region FROM Sales AS a, Sales AS b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cat).RunQuery(q); err == nil {
		t.Fatal("ambiguous unqualified column should error at execution")
	}
}

func TestUnknownRelationErrors(t *testing.T) {
	q, err := parser.ParseQuery("SELECT * FROM Nope")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(salesCatalog()).RunQuery(q); err == nil {
		t.Fatal("unknown relation should error")
	}
}

func TestGroupByValidation(t *testing.T) {
	q, err := parser.ParseQuery("SELECT productId, sum(revenue) FROM Sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Build(q, salesCatalog()); err == nil {
		t.Fatal("ungrouped non-aggregate output should be rejected")
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	q, err := parser.ParseQuery("SELECT region FROM Sales WHERE sum(revenue) > 10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Build(q, salesCatalog()); err == nil {
		t.Fatal("aggregate in WHERE should be rejected")
	}
}

func TestRelRefQueryCopiesRelation(t *testing.T) {
	cat := salesCatalog()
	q, err := parser.ParseQuery("Sales")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cat).RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 5 {
		t.Fatalf("rel ref rows = %d", res.Rel.Len())
	}
	stripped := StripQualifiers(res.Rel)
	for _, c := range stripped.Schema.Cols {
		if c.Qualifier != "" {
			t.Fatalf("qualifier survived strip: %+v", c)
		}
	}
}

// TestSortTieBreakDeterministic: ORDER BY ties used to keep input order,
// which made recomputes (and any LIMIT prefix) depend on how the input
// happened to be materialized. Ties now break on the full output tuple, so
// permuting the input never changes the sorted output — the property the
// incremental top-k path and the parity suites rely on.
func TestSortTieBreakDeterministic(t *testing.T) {
	mk := func(perm []int) memCatalog {
		rel := relation.New("T", relation.NewSchema(
			relation.Col("k", relation.KindInt),
			relation.Col("tag", relation.KindString),
		))
		rows := []relation.Tuple{
			{relation.Int(1), relation.String("d")},
			{relation.Int(1), relation.String("a")},
			{relation.Int(2), relation.String("c")},
			{relation.Int(1), relation.String("b")},
			{relation.Int(2), relation.String("a")},
		}
		for _, i := range perm {
			rel.MustAppend(rows[i])
		}
		return memCatalog{"t": rel}
	}
	perms := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}}
	for _, sql := range []string{
		"SELECT k, tag FROM T ORDER BY k",
		"SELECT k, tag FROM T ORDER BY k DESC",
		"SELECT k, tag FROM T ORDER BY k LIMIT 3",
	} {
		var want *relation.Relation
		for _, perm := range perms {
			got := runSQL(t, mk(perm), sql)
			if want == nil {
				want = got
				continue
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%q: row count varies across input permutations", sql)
			}
			for i := range got.Rows {
				if !got.Rows[i].Equal(want.Rows[i]) {
					t.Fatalf("%q: input permutation changed output order: row %d = %v, want %v",
						sql, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}
