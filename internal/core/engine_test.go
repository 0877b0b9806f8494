package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/relation"
)

// brushingProgram is the paper's running example (Figure 2 / DeVIL 1-3): a
// scatterplot of product revenue vs profit linked to a price histogram via
// the selected view, with a mouse-drag selection interaction.
//
// Geometry: revenue and profit both span [0,100]; the scatterplot maps
// revenue to x in [20,380] and profit to y in [280,20] (y inverted).
// Product positions: p1 (20,280), p2 (110,150), p3 (200,20), p4 (290,215),
// p5 (380,85).
const brushingProgram = `
CREATE TABLE Sales (productId int, price float, profit float, revenue float, productName string);
INSERT INTO Sales VALUES
  (1, 40, 0,   0,   'anvil'),
  (2, 55, 50,  25,  'brush'),
  (3, 70, 100, 50,  'cog'),
  (4, 85, 25,  75,  'dynamo'),
  (5, 90, 75,  100, 'easel');

scale_x = SELECT min(revenue) AS lo, max(revenue) AS hi FROM Sales;
scale_y = SELECT min(profit) AS lo, max(profit) AS hi FROM Sales;

-- DeVIL 1: static scatterplot
SPLOT_POINTS =
  SELECT 8 AS radius, 'gray' AS stroke, 'gray' AS fill,
         linear_scale(Sales.revenue, sx.lo, sx.hi, 20, 380) AS center_x,
         linear_scale(Sales.profit, sy.lo, sy.hi, 280, 20) AS center_y,
         productId
  FROM Sales, scale_x AS sx, scale_y AS sy;

-- DeVIL 2: the drag compound event (with the FORALL guard)
C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    WHERE FORALL m IN M m.y > 5
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);

-- DeVIL 3: hit testing against the pre-interaction marks
selected =
  SELECT DISTINCT SP.productId
  FROM C, SPLOT_POINTS@vnow-1 AS SP
  WHERE in_rectangle(SP.center_x, SP.center_y,
        (SELECT min(x) FROM C), (SELECT min(y) FROM C),
        (SELECT max(x + dx) FROM C), (SELECT max(y + dy) FROM C));

-- DeVIL 3: redefinition of the scatterplot over the selection
SPLOT_POINTS =
  SELECT 8 AS radius, 'gray' AS stroke, 'gray' AS fill,
         linear_scale(Sales.revenue, sx.lo, sx.hi, 20, 380) AS center_x,
         linear_scale(Sales.profit, sy.lo, sy.hi, 280, 20) AS center_y,
         productId
  FROM Sales, scale_x AS sx, scale_y AS sy
  WHERE productId NOT IN selected
  UNION
  SELECT 8 AS radius, 'red' AS stroke, 'red' AS fill,
         linear_scale(Sales.revenue, sx.lo, sx.hi, 20, 380) AS center_x,
         linear_scale(Sales.profit, sy.lo, sy.hi, 280, 20) AS center_y,
         productId
  FROM Sales, scale_x AS sx, scale_y AS sy
  WHERE productId IN selected;

-- linked histogram of price per product
HIST =
  SELECT productId * 30 + 10 AS x, 280 - price AS y, 20 AS width, price AS height,
         CASE WHEN productId IN selected THEN 'red' ELSE 'blue' END AS fill,
         productId
  FROM Sales;

P  = render(SELECT * FROM SPLOT_POINTS);
P2 = render(SELECT x, y, width, height, fill FROM HIST, 'rect');
`

func loadBrushing(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	if err := e.LoadProgram(brushingProgram); err != nil {
		t.Fatalf("load: %v", err)
	}
	return e
}

// selectDrag covers products 2 (110,150) and 3 (200,20).
func selectDrag(t0 int64) events.Stream {
	return events.Stream{
		events.Mouse(events.MouseDown, t0, 100, 10),
		events.Mouse(events.MouseMove, t0+1, 150, 80),
		events.Mouse(events.MouseMove, t0+2, 210, 160),
		events.Mouse(events.MouseUp, t0+3, 210, 160),
	}
}

func ids(t *testing.T, rel *relation.Relation, col string) map[int64]bool {
	t.Helper()
	vals, err := rel.Column(col)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]bool{}
	for _, v := range vals {
		n, _ := v.AsInt()
		out[n] = true
	}
	return out
}

func fillOf(t *testing.T, e *Engine, view string, productID int64) string {
	t.Helper()
	rel, err := e.Relation(view)
	if err != nil {
		t.Fatal(err)
	}
	pidIdx := rel.Schema.Index("", "productId")
	fillIdx := rel.Schema.Index("", "fill")
	if pidIdx < 0 || fillIdx < 0 {
		t.Fatalf("view %s lacks productId/fill: %s", view, rel.Schema)
	}
	for _, row := range rel.Rows {
		if n, _ := row[pidIdx].AsInt(); n == productID {
			return row[fillIdx].AsString()
		}
	}
	t.Fatalf("product %d not in %s", productID, view)
	return ""
}

func TestStaticVisualizationLoad(t *testing.T) {
	e := loadBrushing(t, Config{})
	sp, err := e.Relation("SPLOT_POINTS")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() != 5 {
		t.Fatalf("scatterplot marks = %d", sp.Len())
	}
	for id := int64(1); id <= 5; id++ {
		if f := fillOf(t, e, "SPLOT_POINTS", id); f != "gray" {
			t.Fatalf("product %d fill = %s, want gray", id, f)
		}
	}
	sel, err := e.Relation("selected")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 0 {
		t.Fatalf("selected should start empty, has %d", sel.Len())
	}
	// p2 sits at (110,150): a gray circle must be painted there.
	px := e.Image().At(110, 150)
	if px.R != 128 || px.G != 128 || px.B != 128 {
		t.Fatalf("pixel at p2 = %+v, want gray", px)
	}
	// and the histogram bars are blue
	if f := fillOf(t, e, "HIST", 1); f != "blue" {
		t.Fatalf("hist fill = %s", f)
	}
}

func TestLinkedBrushingSelection(t *testing.T) {
	e := loadBrushing(t, Config{})
	txns, err := e.FeedStream(selectDrag(0))
	if err != nil {
		t.Fatal(err)
	}
	last := txns[len(txns)-1]
	if !last.Committed {
		t.Fatalf("drag did not commit: %+v", last)
	}
	sel, _ := e.Relation("selected")
	got := ids(t, sel, "productId")
	if len(got) != 2 || !got[2] || !got[3] {
		t.Fatalf("selected = %v, want {2,3}", got)
	}
	// Linked views: scatterplot circles red for 2,3; histogram bars red too.
	for _, id := range []int64{2, 3} {
		if f := fillOf(t, e, "SPLOT_POINTS", id); f != "red" {
			t.Errorf("product %d scatter fill = %s, want red", id, f)
		}
		if f := fillOf(t, e, "HIST", id); f != "red" {
			t.Errorf("product %d hist fill = %s, want red", id, f)
		}
	}
	for _, id := range []int64{1, 4, 5} {
		if f := fillOf(t, e, "SPLOT_POINTS", id); f != "gray" {
			t.Errorf("product %d scatter fill = %s, want gray", id, f)
		}
	}
	// Pixels: p2's position now renders red.
	px := e.Image().At(110, 150)
	if px.R < 180 || px.G > 100 {
		t.Fatalf("pixel at p2 = %+v, want red", px)
	}
}

func TestMidDragIncrementalUpdates(t *testing.T) {
	e := loadBrushing(t, Config{})
	// Down then a move reaching only p2's neighbourhood.
	if _, err := e.FeedEvent(events.Mouse(events.MouseDown, 0, 100, 140)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedEvent(events.Mouse(events.MouseMove, 1, 120, 160)); err != nil {
		t.Fatal(err)
	}
	sel, _ := e.Relation("selected")
	got := ids(t, sel, "productId")
	if len(got) != 1 || !got[2] {
		t.Fatalf("mid-drag selected = %v, want {2}", got)
	}
	if !e.InTxn() {
		t.Fatal("transaction should be in flight mid-drag")
	}
	// The uncommitted state is visible: p2 is already red (§2.1.2's key
	// difference from traditional transactions).
	if f := fillOf(t, e, "SPLOT_POINTS", 2); f != "red" {
		t.Fatalf("mid-drag fill = %s, want red", f)
	}
	if _, err := e.FeedEvent(events.Mouse(events.MouseUp, 2, 120, 160)); err != nil {
		t.Fatal(err)
	}
	if e.InTxn() {
		t.Fatal("transaction should have committed")
	}
}

func TestAbortRollsBackVisualization(t *testing.T) {
	e := loadBrushing(t, Config{})
	// First, a committed selection of p2/p3.
	if _, err := e.FeedStream(selectDrag(0)); err != nil {
		t.Fatal(err)
	}
	// New drag that would select everything, but a move dips to y=3,
	// violating FORALL m.y > 5 -> abort.
	if _, err := e.FeedEvent(events.Mouse(events.MouseDown, 100, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedEvent(events.Mouse(events.MouseMove, 101, 390, 290)); err != nil {
		t.Fatal(err)
	}
	te, err := e.FeedEvent(events.Mouse(events.MouseMove, 102, 390, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !te.Aborted {
		t.Fatalf("expected abort, got %+v", te)
	}
	// State rolled back to the committed selection {2,3}.
	sel, _ := e.Relation("selected")
	got := ids(t, sel, "productId")
	if len(got) != 2 || !got[2] || !got[3] {
		t.Fatalf("post-abort selected = %v, want {2,3}", got)
	}
	c, _ := e.Relation("C")
	if c.Len() != 0 {
		t.Fatalf("post-abort C should be cleared, has %d rows", c.Len())
	}
	if e.InTxn() {
		t.Fatal("no transaction should be in flight after abort")
	}
}

func TestTable1ThroughEngine(t *testing.T) {
	e := loadBrushing(t, Config{})
	stream := events.Stream{
		events.Mouse(events.MouseDown, 0, 5, 15),
		events.Mouse(events.MouseMove, 1, 6, 17),
		events.Mouse(events.MouseMove, 40, 10, 10),
	}
	if _, err := e.FeedStream(stream); err != nil {
		t.Fatal(err)
	}
	c, _ := e.Relation("C")
	want := [][]int64{
		{0, 5, 15, 0, 0},
		{1, 5, 15, 1, 2},
		{40, 5, 15, 5, -5},
	}
	if c.Len() != len(want) {
		t.Fatalf("C rows = %d, want %d\n%s", c.Len(), len(want), c)
	}
	for i, w := range want {
		for j, v := range w {
			got, _ := c.Rows[i][j].AsInt()
			if got != v {
				t.Errorf("C[%d][%d] = %d, want %d", i, j, got, v)
			}
		}
	}
	// MOUSE_UP terminates; C keeps its committed contents.
	if _, err := e.FeedEvent(events.Mouse(events.MouseUp, 41, 10, 10)); err != nil {
		t.Fatal(err)
	}
	c, _ = e.Relation("C")
	if c.Len() != 3 {
		t.Fatalf("committed C rows = %d", c.Len())
	}
}

func TestVersionedReads(t *testing.T) {
	e := loadBrushing(t, Config{})
	if _, err := e.FeedStream(selectDrag(0)); err != nil {
		t.Fatal(err)
	}
	// vnow-1 = state before the drag committed: all marks gray.
	old, err := e.RelationAt("SPLOT_POINTS", relation.VNow(2))
	if err != nil {
		t.Fatal(err)
	}
	fills, _ := old.Column("fill")
	for _, f := range fills {
		if f.AsString() != "gray" {
			t.Fatalf("vnow-2 fill = %s, want gray", f)
		}
	}
	// current state has red marks
	cur, _ := e.Relation("SPLOT_POINTS")
	fills, _ = cur.Column("fill")
	reds := 0
	for _, f := range fills {
		if f.AsString() == "red" {
			reds++
		}
	}
	if reds != 2 {
		t.Fatalf("current red marks = %d, want 2", reds)
	}
}

func TestUndoRestoresPreviousVersion(t *testing.T) {
	e := loadBrushing(t, Config{})
	if _, err := e.FeedStream(selectDrag(0)); err != nil {
		t.Fatal(err)
	}
	if f := fillOf(t, e, "SPLOT_POINTS", 2); f != "red" {
		t.Fatal("selection did not apply")
	}
	if err := e.Undo(); err != nil {
		t.Fatal(err)
	}
	if f := fillOf(t, e, "SPLOT_POINTS", 2); f != "gray" {
		t.Fatalf("post-undo fill = %s, want gray", f)
	}
}

func TestRecursionRejected(t *testing.T) {
	e := New(Config{})
	err := e.LoadProgram(`
CREATE TABLE T (a int);
V = SELECT a FROM T WHERE a IN V;
`)
	if err == nil || !strings.Contains(err.Error(), "recursi") {
		t.Fatalf("direct recursion error = %v", err)
	}

	e2 := New(Config{})
	err = e2.LoadProgram(`
CREATE TABLE T (a int);
A = SELECT a FROM T;
B = SELECT a FROM A;
A = SELECT a FROM B;
`)
	if err == nil {
		t.Fatal("mutual recursion should be rejected")
	}
	// The rejected redefinition leaves the previous definition in force.
	if err := e2.Exec("INSERT INTO T VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B"} {
		if rel, err := e2.Relation(name); err != nil || len(rel.Rows) != 1 {
			t.Fatalf("after the rejected redefinition, %s = %v, %v; want the inserted row", name, rel, err)
		}
	}

	// The versioned escape hatch is allowed.
	e3 := New(Config{})
	if err := e3.LoadProgram(`
CREATE TABLE T (a int);
INSERT INTO T VALUES (1);
A = SELECT a FROM T;
B = SELECT a FROM A;
A = SELECT a FROM B@vnow-1;
`); err != nil {
		t.Fatalf("versioned mutual reference should be allowed: %v", err)
	}
}

func TestAmbiguityWarning(t *testing.T) {
	e := New(Config{})
	err := e.LoadProgram(`
C1 = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U RETURN (D.t);
C2 = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U RETURN (D.t);
`)
	if err != nil {
		t.Fatal(err)
	}
	warns := e.Warnings()
	if len(warns) == 0 || !strings.Contains(warns[0], "ambiguous") {
		t.Fatalf("warnings = %v", warns)
	}
}

func TestInsertTriggersViewMaintenance(t *testing.T) {
	e := loadBrushing(t, Config{})
	sp, _ := e.Relation("SPLOT_POINTS")
	if sp.Len() != 5 {
		t.Fatal("precondition")
	}
	if err := e.Exec("INSERT INTO Sales VALUES (6, 50, 60, 60, 'flask')"); err != nil {
		t.Fatal(err)
	}
	sp, _ = e.Relation("SPLOT_POINTS")
	if sp.Len() != 6 {
		t.Fatalf("marks after insert = %d, want 6", sp.Len())
	}
	if err := e.Exec("DELETE FROM Sales WHERE productId = 6"); err != nil {
		t.Fatal(err)
	}
	sp, _ = e.Relation("SPLOT_POINTS")
	if sp.Len() != 5 {
		t.Fatalf("marks after delete = %d, want 5", sp.Len())
	}
}

func TestIncrementalMatchesFullRecompute(t *testing.T) {
	inc := loadBrushing(t, Config{})
	full := loadBrushing(t, Config{RecomputeAll: true})
	for _, eng := range []*Engine{inc, full} {
		if _, err := eng.FeedStream(selectDrag(0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"selected", "SPLOT_POINTS", "HIST"} {
		a, _ := inc.Relation(name)
		b, _ := full.Relation(name)
		ac, bc := a.Clone(), b.Clone()
		ac.SortDeterministic()
		bc.SortDeterministic()
		if !relation.Equal(ac, bc) {
			t.Errorf("view %s diverges between incremental and full recompute:\n%s\nvs\n%s", name, ac, bc)
		}
	}
	if inc.Stats.ViewRecomputes >= full.Stats.ViewRecomputes {
		t.Errorf("incremental recomputes (%d) should be fewer than full (%d)",
			inc.Stats.ViewRecomputes, full.Stats.ViewRecomputes)
	}
}

func TestAdHocQuery(t *testing.T) {
	e := loadBrushing(t, Config{})
	rel, err := e.Query("SELECT count(*) AS n FROM Sales")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rel.Rows[0][0].AsInt(); n != 5 {
		t.Fatalf("count = %d", n)
	}
}

func TestCannotInsertIntoView(t *testing.T) {
	e := loadBrushing(t, Config{})
	if err := e.Exec("INSERT INTO selected VALUES (9)"); err == nil {
		t.Fatal("insert into view should fail")
	}
	if err := e.Exec("V_NEW = SELECT 1 AS a; INSERT INTO V_NEW VALUES (2)"); err == nil {
		t.Fatal("insert into view should fail")
	}
}

func TestPixelsRelationExport(t *testing.T) {
	e := loadBrushing(t, Config{})
	p := e.Pixels(true)
	if p.Len() == 0 {
		t.Fatal("pixels relation should have non-background rows after render")
	}
	if p.Schema.Len() != 6 {
		t.Fatalf("pixels schema = %s", p.Schema)
	}
}

func TestRepeatedInteractionsAccumulateVersions(t *testing.T) {
	e := loadBrushing(t, Config{})
	v0 := e.Store().Versions()
	for k := 0; k < 3; k++ {
		if _, err := e.FeedStream(selectDrag(int64(k * 100))); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Store().Versions(); got != v0+3 {
		t.Fatalf("versions = %d, want %d", got, v0+3)
	}
}

// A schema-changing view redefinition must not poison the delta log: the
// store records it as a full reset, so historical reads keep the schema
// (and values) the version actually had, and reads after the redefinition
// see the new shape.
func TestRedefinedViewSchemaInHistory(t *testing.T) {
	e := New(Config{})
	if err := e.LoadProgram(`
CREATE TABLE T (a int, b int);
INSERT INTO T VALUES (1, 10), (2, 20);
V = SELECT a AS first, b AS second FROM T;
`); err != nil {
		t.Fatal(err)
	}
	// Redefine with swapped columns and different names, then commit.
	if err := e.Exec("V = SELECT b AS big, a AS small FROM T"); err != nil {
		t.Fatal(err)
	}
	e.Commit()

	// The pre-redefinition version keeps the old schema and column order.
	old, err := e.RelationAt("V", relation.VNow(2))
	if err != nil {
		t.Fatal(err)
	}
	if old.Schema.Index("", "first") != 0 || old.Schema.Index("", "big") >= 0 {
		t.Fatalf("V@vnow-2 schema = %s, want the pre-redefinition columns", old.Schema)
	}
	firsts, err := old.Column("first")
	if err != nil {
		t.Fatal(err)
	}
	sum := int64(0)
	for _, v := range firsts {
		n, _ := v.AsInt()
		sum += n
	}
	if sum != 3 { // a-values 1+2
		t.Fatalf("V@vnow-2 first-column sum = %d, want 3", sum)
	}
	// The post-redefinition version carries the new schema.
	now, err := e.RelationAt("V", relation.VNow(1))
	if err != nil {
		t.Fatal(err)
	}
	if now.Schema.Index("", "big") != 0 {
		t.Fatalf("V@vnow-1 schema = %s, want the redefined columns", now.Schema)
	}
	bigs, _ := now.Column("big")
	sum = 0
	for _, v := range bigs {
		n, _ := v.AsInt()
		sum += n
	}
	if sum != 30 { // b-values 10+20
		t.Fatalf("V@vnow-1 big-column sum = %d, want 30", sum)
	}
}

// TestUndoSurvivesOrderedViewRedefinition: view definitions are not
// versioned, so undo/rollback can restore an ordered view's rows computed
// under a previous definition whose columns the current sort keys cannot
// evaluate. The restore-order pass must degrade to bag order for that view
// (the pre-ordered-maintenance behavior), not fail the undo; historical
// reads through RelationAt must likewise fall back instead of erroring.
func TestUndoSurvivesOrderedViewRedefinition(t *testing.T) {
	e := New(Config{})
	if err := e.LoadProgram(`
CREATE TABLE T (a int, b int);
INSERT INTO T VALUES (1, 9), (2, 8), (3, 7);
V = SELECT a FROM T ORDER BY a;
`); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("INSERT INTO T VALUES (4, 6)"); err != nil {
		t.Fatal(err)
	}
	e.Commit()
	// Redefine V with a different schema and sort keys.
	if err := e.Exec("V = SELECT a, b FROM T ORDER BY b DESC, a"); err != nil {
		t.Fatal(err)
	}
	e.Commit()
	// Reading a version that predates the redefinition returns the old
	// 1-column rows; the current keys cannot order them — no error.
	past, err := e.RelationAt("V", relation.VersionRef{Kind: relation.VersionVNow, Offset: 2})
	if err != nil {
		t.Fatalf("RelationAt across redefinition: %v", err)
	}
	if past.Schema.Len() != 1 || len(past.Rows) != 4 {
		t.Fatalf("historical V = %d cols x %d rows, want 1x4", past.Schema.Len(), len(past.Rows))
	}
	// Undo restores the old-definition rows into the live store while the
	// engine keeps the new definition; this used to fail the whole undo
	// with "unknown column b".
	if err := e.Undo(); err != nil {
		t.Fatalf("Undo across redefinition: %v", err)
	}
	v, err := e.Relation("V")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 4 {
		t.Fatalf("restored V has %d rows, want 4", len(v.Rows))
	}
}

// TestDeleteWhere pins DELETE's predicate: unqualified and table-qualified
// columns both resolve, a NULL predicate keeps the row, the delete reaches
// a view over the table, and an unknown column (another qualifier included)
// fails the statement and leaves the table unchanged.
func TestDeleteWhere(t *testing.T) {
	e := New(Config{})
	if err := e.LoadProgram(`
CREATE TABLE T (x int, y int);
INSERT INTO T VALUES (1, 10), (2, NULL), (3, 30), (4, NULL), (5, 50);
V = SELECT x FROM T WHERE x > 0;
`); err != nil {
		t.Fatal(err)
	}
	xs := func(name string) []int64 {
		t.Helper()
		rel, err := e.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, row := range rel.Rows {
			n, _ := row[0].AsInt()
			out = append(out, n)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	steps := []struct {
		stmt string
		want []int64
	}{
		{"DELETE FROM T WHERE x > 4", []int64{1, 2, 3, 4}},
		{"DELETE FROM T WHERE T.x > 2 AND y > 0", []int64{1, 2, 4}}, // x=4: NULL, kept
		{"DELETE FROM T WHERE y > 0", []int64{2, 4}},
	}
	for _, s := range steps {
		if err := e.Exec(s.stmt); err != nil {
			t.Fatalf("%s: %v", s.stmt, err)
		}
		for _, rel := range []string{"T", "V"} {
			if got := xs(rel); fmt.Sprint(got) != fmt.Sprint(s.want) {
				t.Fatalf("after %s: %s = %v, want %v", s.stmt, rel, got, s.want)
			}
		}
	}
	for _, bad := range []string{"DELETE FROM T WHERE z > 0", "DELETE FROM T WHERE U.x > 0"} {
		err := e.Exec(bad)
		if err == nil || !strings.Contains(err.Error(), "unknown column") {
			t.Fatalf("%s: got %v, want an unknown-column error", bad, err)
		}
		if got := xs("T"); fmt.Sprint(got) != "[2 4]" {
			t.Fatalf("failed %s changed T to %v", bad, got)
		}
	}
}

// TestInsertValuesCells pins INSERT … VALUES: literal cells are copied as
// they are, computed cells (negation, arithmetic, a function call) still
// evaluate, and a column reference, which has no row to read, fails the
// statement and leaves the table unchanged.
func TestInsertValuesCells(t *testing.T) {
	e := New(Config{})
	if err := e.LoadProgram(`
CREATE TABLE T (a int, b int, c string, d float);
INSERT INTO T VALUES (-3, 1 + 2, upper('a'), 2.5), (7, 8, 'x', NULL);
`); err != nil {
		t.Fatal(err)
	}
	rel, err := e.Relation("T")
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.Tuple{
		{relation.Int(-3), relation.Int(3), relation.String("A"), relation.Float(2.5)},
		{relation.Int(7), relation.Int(8), relation.String("x"), relation.Null()},
	}
	if len(rel.Rows) != len(want) {
		t.Fatalf("T has %d rows, want %d", len(rel.Rows), len(want))
	}
	for i, row := range rel.Rows {
		for c, v := range row {
			if v.Kind() != want[i][c].Kind() || !v.Equal(want[i][c]) {
				t.Fatalf("T row %d col %d = %v (%s), want %v (%s)", i, c, v, v.Kind(), want[i][c], want[i][c].Kind())
			}
		}
	}
	err = e.Exec("INSERT INTO T VALUES (1, x, 'y', 0.5)")
	if err == nil || !strings.Contains(err.Error(), "unknown column x") {
		t.Fatalf("INSERT with a column reference: got %v, want unknown column x", err)
	}
	if rel, _ := e.Relation("T"); len(rel.Rows) != 2 {
		t.Fatalf("failed INSERT left T with %d rows", len(rel.Rows))
	}
}
