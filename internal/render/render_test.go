package render

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func TestParseColor(t *testing.T) {
	c, err := ParseColor("red")
	if err != nil || c.A != 255 || c.R < 200 {
		t.Fatalf("red = %+v, %v", c, err)
	}
	c, err = ParseColor("#102030")
	if err != nil || c != (RGBA{0x10, 0x20, 0x30, 0xff}) {
		t.Fatalf("hex = %+v, %v", c, err)
	}
	c, err = ParseColor("#10203080")
	if err != nil || c.A != 0x80 {
		t.Fatalf("hex alpha = %+v, %v", c, err)
	}
	if _, err := ParseColor("notacolor"); err == nil {
		t.Fatal("bad color should error")
	}
	c, _ = ParseColor("none")
	if c.A != 0 {
		t.Fatal("none should be transparent")
	}
}

func TestBlendOpaqueAndAlpha(t *testing.T) {
	img := NewImage(4, 4)
	img.Blend(1, 1, RGBA{0, 0, 0, 255})
	if img.At(1, 1) != (RGBA{0, 0, 0, 255}) {
		t.Fatal("opaque blend failed")
	}
	// 50% black over white ≈ mid gray
	img.Blend(2, 2, RGBA{0, 0, 0, 128})
	got := img.At(2, 2)
	if got.R < 120 || got.R > 135 {
		t.Fatalf("alpha blend = %+v", got)
	}
	// out-of-bounds writes are safe no-ops
	img.Blend(-1, 0, RGBA{0, 0, 0, 255})
	img.Blend(100, 100, RGBA{0, 0, 0, 255})
}

func TestFillCircleGeometry(t *testing.T) {
	img := NewImage(40, 40)
	img.FillCircle(20, 20, 8, RGBA{0, 0, 0, 255})
	if img.At(20, 20) != (RGBA{0, 0, 0, 255}) {
		t.Fatal("center must be filled")
	}
	if img.At(20, 13) != (RGBA{0, 0, 0, 255}) {
		t.Fatal("point just inside radius must be filled")
	}
	if img.At(20, 5) == (RGBA{0, 0, 0, 255}) {
		t.Fatal("point outside radius must not be filled")
	}
	if img.At(2, 2) != (RGBA{255, 255, 255, 255}) {
		t.Fatal("far corner must stay white")
	}
}

func TestFillRectBounds(t *testing.T) {
	img := NewImage(20, 20)
	img.FillRect(5, 5, 4, 3, RGBA{10, 20, 30, 255})
	if img.At(5, 5) != (RGBA{10, 20, 30, 255}) || img.At(8, 7) != (RGBA{10, 20, 30, 255}) {
		t.Fatal("inside rect must be filled")
	}
	if img.At(9, 5) == (RGBA{10, 20, 30, 255}) || img.At(5, 8) == (RGBA{10, 20, 30, 255}) {
		t.Fatal("outside rect must not be filled")
	}
}

func TestDrawLineEndpoints(t *testing.T) {
	img := NewImage(20, 20)
	img.DrawLine(2, 2, 17, 11, RGBA{0, 0, 0, 255})
	if img.At(2, 2) != (RGBA{0, 0, 0, 255}) || img.At(17, 11) != (RGBA{0, 0, 0, 255}) {
		t.Fatal("line endpoints must be drawn")
	}
}

func TestDrawTextProducesInk(t *testing.T) {
	img := NewImage(60, 10)
	img.DrawText(1, 1, "DVMS 42", RGBA{0, 0, 0, 255})
	if img.NonBackgroundCount() == 0 {
		t.Fatal("text should produce pixels")
	}
}

// Property: no drawing primitive ever panics, regardless of coordinates
// (marks routinely land partially outside the viewport).
func TestRasterizerBoundsSafety(t *testing.T) {
	img := NewImage(32, 32)
	f := func(cx, cy, r float64, x1, y1, x2, y2 int16) bool {
		img.FillCircle(cx, cy, clampF(r, -10, 50), RGBA{1, 2, 3, 200})
		img.StrokeCircle(cx, cy, clampF(r, -10, 50), RGBA{1, 2, 3, 200})
		img.FillRect(cx, cy, clampF(r, -10, 50), clampF(r, -10, 50), RGBA{1, 2, 3, 128})
		img.DrawLine(int(x1)%100, int(y1)%100, int(x2)%100, int(y2)%100, RGBA{0, 0, 0, 255})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clampF(v, lo, hi float64) float64 {
	if v != v { // NaN
		return lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func circleMarks() *relation.Relation {
	rel := relation.New("marks", relation.NewSchema(
		relation.Col("radius", relation.KindInt),
		relation.Col("stroke", relation.KindString),
		relation.Col("fill", relation.KindString),
		relation.Col("center_x", relation.KindFloat),
		relation.Col("center_y", relation.KindFloat),
		relation.Col("productId", relation.KindInt),
	))
	rel.MustAppend(relation.Tuple{
		relation.Int(5), relation.String("gray"), relation.String("gray"),
		relation.Float(10), relation.Float(10), relation.Int(1),
	})
	rel.MustAppend(relation.Tuple{
		relation.Int(5), relation.String("red"), relation.String("red"),
		relation.Float(30), relation.Float(20), relation.Int(2),
	})
	return rel
}

func TestInferMarkType(t *testing.T) {
	mt, err := InferMarkType(circleMarks().Schema)
	if err != nil || mt != MarkCircle {
		t.Fatalf("infer = %v, %v", mt, err)
	}
	rect := relation.NewSchema(
		relation.Col("x", relation.KindFloat), relation.Col("y", relation.KindFloat),
		relation.Col("width", relation.KindFloat), relation.Col("height", relation.KindFloat),
	)
	if mt, _ := InferMarkType(rect); mt != MarkRect {
		t.Fatalf("rect infer = %v", mt)
	}
	line := relation.NewSchema(
		relation.Col("x1", relation.KindFloat), relation.Col("y1", relation.KindFloat),
		relation.Col("x2", relation.KindFloat), relation.Col("y2", relation.KindFloat),
	)
	if mt, _ := InferMarkType(line); mt != MarkLine {
		t.Fatalf("line infer = %v", mt)
	}
	if _, err := InferMarkType(relation.NewSchema(relation.Col("z", relation.KindInt))); err == nil {
		t.Fatal("uninferrable schema should error")
	}
}

func TestParseMarkType(t *testing.T) {
	for in, want := range map[string]MarkType{
		"circle": MarkCircle, "POINT": MarkCircle, "rect": MarkRect,
		"bar": MarkRect, "line": MarkLine, "text": MarkText,
	} {
		mt, err := ParseMarkType(in)
		if err != nil || mt != want {
			t.Errorf("ParseMarkType(%q) = %v, %v", in, mt, err)
		}
	}
	if _, err := ParseMarkType("blob"); err == nil {
		t.Error("unknown mark type should error")
	}
}

func TestRenderMarksCircles(t *testing.T) {
	img := NewImage(50, 30)
	if err := RenderMarks(img, circleMarks(), MarkCircle); err != nil {
		t.Fatal(err)
	}
	gray := img.At(10, 10)
	if gray.R != 128 || gray.G != 128 {
		t.Fatalf("gray circle center = %+v", gray)
	}
	red := img.At(30, 20)
	if red.R < 200 || red.G > 100 {
		t.Fatalf("red circle center = %+v", red)
	}
}

func TestRenderMarksBars(t *testing.T) {
	rel := relation.New("bars", relation.NewSchema(
		relation.Col("x", relation.KindFloat),
		relation.Col("y", relation.KindFloat),
		relation.Col("width", relation.KindFloat),
		relation.Col("height", relation.KindFloat),
		relation.Col("fill", relation.KindString),
	))
	rel.MustAppend(relation.Tuple{
		relation.Float(2), relation.Float(10), relation.Float(6), relation.Float(15),
		relation.String("green"),
	})
	img := NewImage(20, 30)
	if err := RenderMarks(img, rel, MarkRect); err != nil {
		t.Fatal(err)
	}
	p := img.At(4, 15)
	if p.G < 100 || p.R > 100 {
		t.Fatalf("bar pixel = %+v", p)
	}
}

func TestPixelsRelationSparse(t *testing.T) {
	img := NewImage(10, 10)
	img.Blend(3, 4, RGBA{1, 2, 3, 255})
	rel := PixelsRelation(img, true)
	if rel.Len() != 1 {
		t.Fatalf("sparse pixels = %d rows", rel.Len())
	}
	row := rel.Rows[0]
	if x, _ := row[0].AsInt(); x != 3 {
		t.Fatalf("x = %v", row[0])
	}
	if y, _ := row[1].AsInt(); y != 4 {
		t.Fatalf("y = %v", row[1])
	}
	full := PixelsRelation(img, false)
	if full.Len() != 100 {
		t.Fatalf("full pixels = %d rows", full.Len())
	}
}

func TestWritePNG(t *testing.T) {
	img := NewImage(16, 16)
	img.FillCircle(8, 8, 5, RGBA{200, 0, 0, 255})
	var buf bytes.Buffer
	if err := img.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 50 || !bytes.HasPrefix(buf.Bytes(), []byte("\x89PNG")) {
		t.Fatalf("png output = %d bytes", buf.Len())
	}
}

func TestASCIIRendering(t *testing.T) {
	img := NewImage(20, 10)
	img.FillRect(0, 0, 20, 10, RGBA{0, 0, 0, 255})
	out := img.ASCII(2, 2)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 || len(lines[0]) != 10 {
		t.Fatalf("ascii dims = %dx%d", len(lines[0]), len(lines))
	}
	if strings.ContainsRune(out, ' ') {
		t.Fatal("all-black image should have no blank cells")
	}
	img.Clear()
	out = img.ASCII(2, 2)
	if strings.Trim(out, " \n") != "" {
		t.Fatal("white image should render blank")
	}
}

func TestOpacityAttribute(t *testing.T) {
	rel := relation.New("m", relation.NewSchema(
		relation.Col("center_x", relation.KindFloat),
		relation.Col("center_y", relation.KindFloat),
		relation.Col("radius", relation.KindFloat),
		relation.Col("fill", relation.KindString),
		relation.Col("opacity", relation.KindFloat),
	))
	rel.MustAppend(relation.Tuple{
		relation.Float(5), relation.Float(5), relation.Float(3),
		relation.String("black"), relation.Float(0.5),
	})
	img := NewImage(10, 10)
	if err := RenderMarks(img, rel, MarkCircle); err != nil {
		t.Fatal(err)
	}
	p := img.At(5, 5)
	if p.R < 100 || p.R > 150 {
		t.Fatalf("half-opacity black over white = %+v, want mid gray", p)
	}
}

// A bound color attribute reuses its last parse only for the same string:
// runs of one color, a change of color and an unparseable string (the
// default) each paint what a fresh parse would.
func TestBindingColorRuns(t *testing.T) {
	rel := relation.New("bars", relation.NewSchema(
		relation.Col("x", relation.KindInt),
		relation.Col("fill", relation.KindString),
		relation.Col("y", relation.KindInt),
	))
	for i, fill := range []string{"red", "red", "#0000ff", "nonsense", "red"} {
		rel.MustAppend(relation.Tuple{relation.Int(int64(4 * i)), relation.String(fill), relation.Int(0)})
	}
	img := NewImage(20, 4)
	b := bind(rel.Schema, MarkRect)
	b.Draw(img, rel.Rows)
	if !b.Fits(rel.Schema) || b.Fits(rel.Schema.Qualify("t")) {
		t.Fatal("a binding fits exactly the schema it was bound against")
	}
	red, _ := ParseColor("red")
	blue, gray := RGBA{0, 0, 255, 255}, RGBA{128, 128, 128, 255}
	for i, want := range []RGBA{red, red, blue, gray, red} {
		if got := img.At(4*i, 0); got != want {
			t.Errorf("mark %d = %+v, want %+v", i, got, want)
		}
	}
}
