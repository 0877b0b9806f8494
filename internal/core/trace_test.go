package core

import (
	"testing"

	"repro/internal/events"
)

// traceProgram is the paper's DeVIL 4: linked brushing expressed with a
// BACKWARD TRACE instead of manual productId annotations. The scatterplot
// and histogram are both defined over the partition {Sales∖B, B}.
const traceProgram = `
CREATE TABLE Sales (productId int, price float, profit float, revenue float, productName string);
INSERT INTO Sales VALUES
  (1, 40, 0,   0,   'anvil'),
  (2, 55, 50,  25,  'brush'),
  (3, 70, 100, 50,  'cog'),
  (4, 85, 25,  75,  'dynamo'),
  (5, 90, 75,  100, 'easel');

-- The paper's scale_x/scale_y are parameter relations holding the domain
-- bounds (DeVIL 1), not views over Sales; as base relations they are
-- provenance dead ends, so traces follow only the Sales data path.
CREATE TABLE scale_x (lo float, hi float);
INSERT INTO scale_x VALUES (0, 100);
CREATE TABLE scale_y (lo float, hi float);
INSERT INTO scale_y VALUES (0, 100);

SPLOT_POINTS =
  SELECT 8 AS radius, 'gray' AS stroke, 'gray' AS fill,
         linear_scale(Sales.revenue, sx.lo, sx.hi, 20, 380) AS center_x,
         linear_scale(Sales.profit, sy.lo, sy.hi, 280, 20) AS center_y
  FROM Sales, scale_x AS sx, scale_y AS sy;

C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);

B = BACKWARD TRACE
    FROM SPLOT_POINTS@vnow-1 AS SP, C
    WHERE in_rectangle(SP.center_x, SP.center_y,
          (SELECT min(x) FROM C), (SELECT min(y) FROM C),
          (SELECT max(x + dx) FROM C), (SELECT max(y + dy) FROM C))
    TO Sales;

▷ SPLOT_POINTS without productId
SPLOT_POINTS =
  SELECT 8 AS radius, 'red' AS stroke, 'red' AS fill,
         linear_scale(B.revenue, sx.lo, sx.hi, 20, 380) AS center_x,
         linear_scale(B.profit, sy.lo, sy.hi, 280, 20) AS center_y
  FROM B, scale_x AS sx, scale_y AS sy
  UNION
  SELECT 8 AS radius, 'gray' AS stroke, 'gray' AS fill,
         linear_scale(rest.revenue, sx.lo, sx.hi, 20, 380) AS center_x,
         linear_scale(rest.profit, sy.lo, sy.hi, 280, 20) AS center_y
  FROM (Sales MINUS B) AS rest, scale_x AS sx, scale_y AS sy;

HIST =
  SELECT B.productId * 30 + 10 AS x, 280 - B.price AS y, 20 AS width, B.price AS height, 'red' AS fill
  FROM B
  UNION
  SELECT rest.productId * 30 + 10 AS x, 280 - rest.price AS y, 20 AS width, rest.price AS height, 'blue' AS fill
  FROM (Sales MINUS B) AS rest;

P = render(SELECT * FROM SPLOT_POINTS);
`

func loadTrace(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	if err := e.LoadProgram(traceProgram); err != nil {
		t.Fatalf("load: %v", err)
	}
	return e
}

func TestDeVIL4BackwardTraceBrushing(t *testing.T) {
	e := loadTrace(t, Config{})
	b, err := e.Relation("B")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("B should start empty, has %d", b.Len())
	}
	if _, err := e.FeedStream(selectDrag(0)); err != nil {
		t.Fatal(err)
	}
	b, _ = e.Relation("B")
	got := ids(t, b, "productId")
	if len(got) != 2 || !got[2] || !got[3] {
		t.Fatalf("B = %v, want {2,3}", got)
	}
	// B carries the full Sales schema — the trace returns base rows,
	// not mark rows.
	if b.Schema.Index("", "productName") < 0 {
		t.Fatalf("B schema = %s", b.Schema)
	}
	// Downstream views partition on B.
	hist, _ := e.Relation("HIST")
	reds := 0
	fills, _ := hist.Column("fill")
	for _, f := range fills {
		if f.AsString() == "red" {
			reds++
		}
	}
	if reds != 2 {
		t.Fatalf("red hist bars = %d, want 2", reds)
	}
}

func TestForwardTrace(t *testing.T) {
	e := loadTrace(t, Config{})
	// Which scatterplot marks derive from product 2?
	rel, err := e.Query("FORWARD TRACE FROM Sales WHERE productId = 2 TO SPLOT_POINTS")
	if err == nil {
		// Query() plans TraceStmt through the planner, which rejects it;
		// forward traces are evaluated as views.
		_ = rel
		t.Fatal("ad-hoc trace through Query should fail (trace requires view context)")
	}
	if err2 := e.Exec("FWD = FORWARD TRACE FROM Sales WHERE productId = 2 TO SPLOT_POINTS"); err2 != nil {
		t.Fatal(err2)
	}
	fwd, err := e.Relation("FWD")
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Len() != 1 {
		t.Fatalf("forward trace rows = %d, want 1\n%s", fwd.Len(), fwd)
	}
	// The traced mark is p2's circle at (110,150).
	cx, _ := fwd.Rows[0][fwd.Schema.Index("", "center_x")].AsFloat()
	cy, _ := fwd.Rows[0][fwd.Schema.Index("", "center_y")].AsFloat()
	if cx != 110 || cy != 150 {
		t.Fatalf("traced mark at (%v,%v), want (110,150)", cx, cy)
	}
}

func TestForwardTraceThroughAggregate(t *testing.T) {
	e := New(Config{})
	if err := e.LoadProgram(`
CREATE TABLE Sales (productId int, region string, revenue float);
INSERT INTO Sales VALUES (1,'east',100),(2,'east',200),(3,'west',150);
TOTALS = SELECT region, sum(revenue) AS total FROM Sales GROUP BY region;
`); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("FWD = FORWARD TRACE FROM Sales WHERE productId = 1 TO TOTALS"); err != nil {
		t.Fatal(err)
	}
	fwd, _ := e.Relation("FWD")
	if fwd.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (the east group)", fwd.Len())
	}
	if fwd.Rows[0][0].AsString() != "east" {
		t.Fatalf("traced group = %s", fwd.Rows[0][0])
	}
}

func TestBackwardTraceThroughViewChain(t *testing.T) {
	// Trace through two stacked views down to the base table.
	e := New(Config{})
	if err := e.LoadProgram(`
CREATE TABLE Base (id int, v float);
INSERT INTO Base VALUES (1, 10), (2, 20), (3, 30), (4, 40);
MID = SELECT id, v * 2 AS v2 FROM Base WHERE v >= 20;
TOP_V = SELECT id, v2 + 1 AS v3 FROM MID WHERE v2 <= 60;
`); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("TR = BACKWARD TRACE FROM TOP_V WHERE TOP_V.v3 > 41 TO Base"); err != nil {
		t.Fatal(err)
	}
	tr, _ := e.Relation("TR")
	// TOP_V rows: id2 (v3=41), id3 (v3=61 filtered by MID? v2=60 <= 60 so
	// v3=61)… TOP_V = {id2: 41, id3: 61}; v3 > 41 selects id3 → Base row 3.
	if tr.Len() != 1 {
		t.Fatalf("trace rows = %d, want 1\n%s", tr.Len(), tr)
	}
	if id, _ := tr.Rows[0][0].AsInt(); id != 3 {
		t.Fatalf("traced id = %d, want 3", id)
	}
}

func TestTraceAfterMultipleCommits(t *testing.T) {
	e := loadTrace(t, Config{})
	// Two selections in sequence; the second hit-tests against the marks
	// committed by the first.
	if _, err := e.FeedStream(selectDrag(0)); err != nil {
		t.Fatal(err)
	}
	// Select only p5 at (380,85).
	second := events.Stream{
		events.Mouse(events.MouseDown, 100, 370, 75),
		events.Mouse(events.MouseMove, 101, 390, 95),
		events.Mouse(events.MouseUp, 102, 390, 95),
	}
	if _, err := e.FeedStream(second); err != nil {
		t.Fatal(err)
	}
	b, _ := e.Relation("B")
	got := ids(t, b, "productId")
	if len(got) != 1 || !got[5] {
		t.Fatalf("second selection B = %v, want {5}", got)
	}
}
