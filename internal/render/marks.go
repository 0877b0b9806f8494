package render

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/relation"
)

// MarkType enumerates the mark relations of the visual domain (§2.1.1): each
// marks relation corresponds to one mark type with geometry and visual
// encoding attributes.
type MarkType uint8

// Supported mark types.
const (
	MarkCircle MarkType = iota
	MarkRect
	MarkLine
	MarkText
)

// String names the mark type as used in render(..., 'circle') calls.
func (m MarkType) String() string {
	switch m {
	case MarkCircle:
		return "circle"
	case MarkRect:
		return "rect"
	case MarkLine:
		return "line"
	default:
		return "text"
	}
}

// ParseMarkType resolves a mark type name.
func ParseMarkType(s string) (MarkType, error) {
	switch strings.ToLower(s) {
	case "circle", "point":
		return MarkCircle, nil
	case "rect", "bar", "rectangle":
		return MarkRect, nil
	case "line":
		return MarkLine, nil
	case "text", "label":
		return MarkText, nil
	default:
		return 0, fmt.Errorf("unknown mark type %q", s)
	}
}

// InferMarkType guesses the mark type from a marks relation's schema, the
// behaviour of the paper's render table UDF when no explicit type is given:
// center_x/center_y → circle, x/y/width/height → rect, x1/y1/x2/y2 → line,
// x/y/text → text.
func InferMarkType(s relation.Schema) (MarkType, error) {
	has := func(name string) bool { return s.Index("", name) >= 0 }
	switch {
	case has("center_x") && has("center_y"):
		return MarkCircle, nil
	case has("x1") && has("y1") && has("x2") && has("y2"):
		return MarkLine, nil
	case has("x") && has("y") && has("text"):
		return MarkText, nil
	case has("x") && has("y") && has("width") && has("height"):
		return MarkRect, nil
	default:
		return 0, fmt.Errorf("cannot infer mark type from schema %s", s)
	}
}

// BindSink resolves a render sink's mark type, named (markType) or, when
// markType is empty, inferred from the schema, and binds the schema to it.
func BindSink(s relation.Schema, markType string) (*Binding, error) {
	var mt MarkType
	var err error
	if markType != "" {
		mt, err = ParseMarkType(markType)
	} else {
		mt, err = InferMarkType(s)
	}
	if err != nil {
		return nil, err
	}
	return bind(s, mt), nil
}

// Binding is a marks schema resolved once for one mark type: the position of
// every attribute the mark reads (-1 when the schema lacks it and the
// default applies), so drawing does no name lookups. Each color attribute
// keeps the last string it parsed, so a constant color parses once per
// binding, not once per row. A Binding is not safe for concurrent Draws.
type Binding struct {
	mark    MarkType
	schema  relation.Schema
	geom    [4]int     // positions of the mark's geometry attributes
	def     [4]float64 // their defaults
	opacity int
	text    int
	fill    colorAttr
	stroke  colorAttr
}

// markGeometry names each mark type's geometry attributes, in the order
// Draw reads them, with their defaults.
var markGeometry = [...]struct {
	names  [4]string
	def    [4]float64
	fill   RGBA
	stroke RGBA
}{
	MarkCircle: {[4]string{"center_x", "center_y", "radius"}, [4]float64{0, 0, 3}, RGBA{128, 128, 128, 255}, RGBA{}},
	MarkRect:   {[4]string{"x", "y", "width", "height"}, [4]float64{0, 0, 1, 1}, RGBA{128, 128, 128, 255}, RGBA{}},
	MarkLine:   {[4]string{"x1", "y1", "x2", "y2"}, [4]float64{}, RGBA{}, RGBA{0, 0, 0, 255}},
	MarkText:   {[4]string{"x", "y"}, [4]float64{}, RGBA{0, 0, 0, 255}, RGBA{}},
}

// bind resolves a marks schema for mark type mt.
func bind(s relation.Schema, mt MarkType) *Binding {
	g := markGeometry[mt]
	b := &Binding{
		mark:    mt,
		schema:  relation.Schema{Cols: slices.Clone(s.Cols)},
		def:     g.def,
		opacity: s.Index("", "opacity"),
		text:    s.Index("", "text"),
		fill:    colorAttr{idx: s.Index("", "fill"), def: g.fill},
		stroke:  colorAttr{idx: s.Index("", "stroke"), def: g.stroke},
	}
	for i, name := range g.names {
		b.geom[i] = -1
		if name != "" {
			b.geom[i] = s.Index("", name)
		}
	}
	return b
}

// Fits reports whether the binding was resolved against schema s.
func (b *Binding) Fits(s relation.Schema) bool { return b.schema.Equal(s) }

// Draw rasterizes rows, which must carry the bound schema, onto the image in
// order (later marks paint over earlier ones).
func (b *Binding) Draw(img *Image, rows []relation.Tuple) {
	for _, row := range rows {
		var g [4]float64
		for i, idx := range b.geom {
			g[i] = attrFloat(row, idx, b.def[i])
		}
		opacity := attrFloat(row, b.opacity, 1)
		switch b.mark {
		case MarkCircle:
			img.FillCircle(g[0], g[1], g[2], applyOpacity(b.fill.at(row), opacity))
			img.StrokeCircle(g[0], g[1], g[2], applyOpacity(b.stroke.at(row), opacity))
		case MarkRect:
			img.FillRect(g[0], g[1], g[2], g[3], applyOpacity(b.fill.at(row), opacity))
			img.StrokeRect(g[0], g[1], g[2], g[3], applyOpacity(b.stroke.at(row), opacity))
		case MarkLine:
			img.DrawLine(int(g[0]), int(g[1]), int(g[2]), int(g[3]), applyOpacity(b.stroke.at(row), opacity))
		case MarkText:
			text := ""
			if b.text >= 0 {
				text = row[b.text].AsString()
			}
			img.DrawText(int(g[0]), int(g[1]), text, applyOpacity(b.fill.at(row), opacity))
		}
	}
}

// attrFloat reads a numeric attribute at position idx, or def when the
// schema lacks it or the value is not numeric.
func attrFloat(row relation.Tuple, idx int, def float64) float64 {
	if idx < 0 {
		return def
	}
	f, ok := row[idx].AsFloat()
	if !ok {
		return def
	}
	return f
}

// colorAttr is one bound color attribute: its position, its default (also
// used for unparseable strings), and the last string parsed with its color.
type colorAttr struct {
	idx    int
	def    RGBA
	parsed bool
	last   string
	color  RGBA
}

func (c *colorAttr) at(row relation.Tuple) RGBA {
	if c.idx < 0 {
		return c.def
	}
	s := row[c.idx].AsString()
	if c.parsed && s == c.last {
		return c.color
	}
	col, err := ParseColor(s)
	if err != nil {
		col = c.def
	}
	c.parsed, c.last, c.color = true, s, col
	return col
}

// applyOpacity scales a color's alpha by the mark's opacity attribute.
func applyOpacity(c RGBA, opacity float64) RGBA {
	if opacity >= 1 {
		return c
	}
	if opacity < 0 {
		opacity = 0
	}
	c.A = uint8(float64(c.A) * opacity)
	return c
}

// RenderMarks rasterizes every row of a marks relation onto the image. This
// is the render table UDF of §2.1.1: the only DeVIL UDF permitted visual
// side effects. Rows render in relation order (later marks paint over
// earlier ones).
func RenderMarks(img *Image, rel *relation.Relation, mt MarkType) error {
	bind(rel.Schema, mt).Draw(img, rel.Rows)
	return nil
}

// PixelsRelation exports the framebuffer as the pixels relation
// P(x, y, r, g, b, a) of §2.1.1. The paper notes P's contents are maintained
// by the rendering device and not materialized; this function materializes
// them on demand for analysis. With sparse=true only non-background pixels
// are emitted.
func PixelsRelation(img *Image, sparse bool) *relation.Relation {
	rel := relation.New("P", relation.NewSchema(
		relation.Col("x", relation.KindInt),
		relation.Col("y", relation.KindInt),
		relation.Col("r", relation.KindInt),
		relation.Col("g", relation.KindInt),
		relation.Col("b", relation.KindInt),
		relation.Col("a", relation.KindInt),
	))
	white := RGBA{255, 255, 255, 255}
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			p := img.Pix[y*img.W+x]
			if sparse && p == white {
				continue
			}
			rel.MustAppend(relation.Tuple{
				relation.Int(int64(x)), relation.Int(int64(y)),
				relation.Int(int64(p.R)), relation.Int(int64(p.G)),
				relation.Int(int64(p.B)), relation.Int(int64(p.A)),
			})
		}
	}
	return rel
}
