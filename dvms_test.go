package dvms_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	dvms "repro"
)

const quickProgram = `
CREATE TABLE Pts (id int, x float, y float);
INSERT INTO Pts VALUES (1, 50, 50), (2, 150, 100), (3, 250, 200);

MARKS = SELECT 6 AS radius, 'steelblue' AS fill, x AS center_x, y AS center_y, id
        FROM Pts;

C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);

picked = SELECT DISTINCT MK.id
  FROM C, MARKS@vnow-1 AS MK
  WHERE in_rectangle(MK.center_x, MK.center_y,
        (SELECT min(x) FROM C), (SELECT min(y) FROM C),
        (SELECT max(x + dx) FROM C), (SELECT max(y + dy) FROM C));

P = render(SELECT * FROM MARKS);
`

func TestFacadeEndToEnd(t *testing.T) {
	sys := dvms.New()
	if err := sys.Load(quickProgram); err != nil {
		t.Fatal(err)
	}
	marks, err := sys.Relation("MARKS")
	if err != nil {
		t.Fatal(err)
	}
	if marks.Len() != 3 {
		t.Fatalf("marks = %d", marks.Len())
	}
	// select the first two points with a drag
	te, err := sys.Feed(
		dvms.MouseDown(0, 40, 40),
		dvms.MouseMove(1, 100, 80),
		dvms.MouseMove(2, 160, 110),
		dvms.MouseUp(3, 160, 110),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !te.Committed {
		t.Fatalf("final event should commit: %+v", te)
	}
	picked, err := sys.Relation("picked")
	if err != nil {
		t.Fatal(err)
	}
	if picked.Len() != 2 {
		t.Fatalf("picked = %d rows, want 2\n%s", picked.Len(), picked)
	}
	if sys.InTxn() {
		t.Fatal("no txn should be in flight")
	}
}

func TestFacadeQueryAndPixels(t *testing.T) {
	sys := dvms.New(dvms.Config{Width: 320, Height: 240})
	if err := sys.Load(quickProgram); err != nil {
		t.Fatal(err)
	}
	n, err := sys.Query("SELECT count(*) AS n FROM Pts WHERE x > 100")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Rows[0][0].AsInt(); v != 2 {
		t.Fatalf("query = %v", n.Rows[0][0])
	}
	px := sys.Pixels(true)
	if px.Len() == 0 {
		t.Fatal("pixels should be rendered")
	}
	if img := sys.Image(); img.W != 320 || img.H != 240 {
		t.Fatalf("image dims = %dx%d", img.W, img.H)
	}
	ascii := sys.ASCII(8, 12)
	if !strings.Contains(ascii, "\n") {
		t.Fatal("ascii render empty")
	}
}

func TestFacadeSavePNG(t *testing.T) {
	sys := dvms.New()
	if err := sys.Load(quickProgram); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.png")
	if err := sys.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 100 || string(data[1:4]) != "PNG" {
		t.Fatalf("png file = %d bytes", len(data))
	}
}

func TestFacadeUndoAndVersions(t *testing.T) {
	sys := dvms.New()
	if err := sys.Load(quickProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FeedStream(dvms.Drag(0, 40, 40, 160, 110, 3)); err != nil {
		t.Fatal(err)
	}
	picked, _ := sys.Relation("picked")
	if picked.Len() == 0 {
		t.Fatal("selection missing")
	}
	old, err := sys.RelationAt("picked", dvms.VNow(2))
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 0 {
		t.Fatalf("pre-interaction picked = %d", old.Len())
	}
	if err := sys.Undo(); err != nil {
		t.Fatal(err)
	}
	picked, _ = sys.Relation("picked")
	if picked.Len() != 0 {
		t.Fatalf("post-undo picked = %d", picked.Len())
	}
}

func TestFacadeRegisterFunc(t *testing.T) {
	sys := dvms.New()
	sys.RegisterFunc(dvms.Func{
		Name: "double", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []dvms.Value) (dvms.Value, error) {
			f, _ := args[0].AsFloat()
			return dvms.Float(f * 2), nil
		},
	})
	if err := sys.Load(`
CREATE TABLE T (v float);
INSERT INTO T VALUES (21);
D = SELECT double(v) AS d FROM T;
`); err != nil {
		t.Fatal(err)
	}
	d, err := sys.Relation("D")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := d.Rows[0][0].AsFloat(); f != 42 {
		t.Fatalf("double(21) = %v", d.Rows[0][0])
	}
}

func TestFacadeProvenanceAPI(t *testing.T) {
	sys := dvms.New()
	if err := sys.Load(quickProgram); err != nil {
		t.Fatal(err)
	}
	// Deconstruction recovers the Pts row behind each mark.
	data, err := sys.Deconstruct("MARKS", "Pts")
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 3 {
		t.Fatalf("deconstructed rows = %d", data.Len())
	}
	lin, err := sys.Lineage("MARKS", []int{0, 1, 2}, "Pts")
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) != 3 || len(lin[0]) != 1 {
		t.Fatalf("lineage = %v", lin)
	}
	plan, err := sys.ExplainView("picked")
	if err != nil || !strings.Contains(plan, "Scan") {
		t.Fatalf("explain = %q, %v", plan, err)
	}
	report := sys.DebugReport()
	if !strings.Contains(report, "MARKS") || !strings.Contains(report, "evaluation order") {
		t.Fatalf("report:\n%s", report)
	}
}

func TestFacadeWarningsAndViews(t *testing.T) {
	sys := dvms.New()
	if err := sys.Load(quickProgram + `
C2 = EVENT MOUSE_DOWN AS D2, MOUSE_UP AS U2 RETURN (D2.t);
`); err != nil {
		t.Fatal(err)
	}
	if len(sys.Warnings()) == 0 {
		t.Fatal("overlapping interactions should warn")
	}
	views := sys.Views()
	if len(views) < 3 {
		t.Fatalf("views = %v", views)
	}
	sys.Image() // the sinks rasterize when the frame is read
	if sys.Stats().RenderPasses == 0 {
		t.Fatal("render passes not counted")
	}
}
