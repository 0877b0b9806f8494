// Package render is the rendering substrate of DVMS: a software rasterizer
// that maps marks relations (circles, rectangles, lines, text) onto the
// pixels relation P(x, y, RGBA) of §2.1.1.
//
// The paper's prototype renders to DOM SVG/canvas; here an in-memory
// framebuffer plays that role, which lets
// tests make pixel-level assertions and lets the pixels table be exported
// as an actual relation on demand.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"strconv"
	"strings"
)

// RGBA is one pixel's color with straight (non-premultiplied) alpha.
type RGBA struct {
	R, G, B, A uint8
}

// Common colors used by the paper's examples (gray/red linked brushing,
// green/gray crossfilter bars).
var namedColors = map[string]RGBA{
	"black":     {0, 0, 0, 255},
	"white":     {255, 255, 255, 255},
	"gray":      {128, 128, 128, 255},
	"grey":      {128, 128, 128, 255},
	"lightgray": {211, 211, 211, 255},
	"darkgray":  {80, 80, 80, 255},
	"red":       {220, 50, 47, 255},
	"green":     {70, 160, 70, 255},
	"blue":      {60, 100, 200, 255},
	"orange":    {230, 140, 30, 255},
	"steelblue": {70, 130, 180, 255},
	"purple":    {128, 0, 128, 255},
	"yellow":    {240, 220, 60, 255},
	"none":      {0, 0, 0, 0},
	"":          {0, 0, 0, 0},
}

// ParseColor resolves a named color or "#RRGGBB"/"#RRGGBBAA" hex form.
func ParseColor(s string) (RGBA, error) {
	if c, ok := namedColors[strings.ToLower(strings.TrimSpace(s))]; ok {
		return c, nil
	}
	h := strings.TrimPrefix(strings.TrimSpace(s), "#")
	if len(h) == 6 || len(h) == 8 {
		v, err := strconv.ParseUint(h, 16, 64)
		if err == nil {
			c := RGBA{A: 255}
			if len(h) == 8 {
				c.A = uint8(v & 0xff)
				v >>= 8
			}
			c.B = uint8(v & 0xff)
			c.G = uint8((v >> 8) & 0xff)
			c.R = uint8((v >> 16) & 0xff)
			return c, nil
		}
	}
	return RGBA{}, fmt.Errorf("unknown color %q", s)
}

// Image is a W×H framebuffer with a white background, matching the screen
// the pixels relation models.
type Image struct {
	W, H int
	Pix  []RGBA
}

// NewImage allocates a white image.
func NewImage(w, h int) *Image {
	img := &Image{W: w, H: h, Pix: make([]RGBA, w*h)}
	img.Clear()
	return img
}

// Clear resets the image to opaque white. Seed a short prefix, then double
// it with copy — memmove-speed instead of a per-pixel store loop (Clear runs
// on every render pass, so it is on the per-event path).
func (im *Image) Clear() {
	if len(im.Pix) == 0 {
		return
	}
	white := RGBA{255, 255, 255, 255}
	im.Pix[0] = white
	for n := 1; n < len(im.Pix); n *= 2 {
		copy(im.Pix[n:], im.Pix[:n])
	}
}

// In reports whether the coordinate lies inside the framebuffer.
func (im *Image) In(x, y int) bool { return x >= 0 && x < im.W && y >= 0 && y < im.H }

// At returns the pixel at (x, y); out-of-bounds reads return transparent.
func (im *Image) At(x, y int) RGBA {
	if !im.In(x, y) {
		return RGBA{}
	}
	return im.Pix[y*im.W+x]
}

// Blend composites src over the pixel at (x, y) with straight alpha.
// Out-of-bounds writes are ignored, which keeps mark drawing safe at the
// viewport edges.
func (im *Image) Blend(x, y int, src RGBA) {
	if !im.In(x, y) || src.A == 0 {
		return
	}
	if src.A == 255 {
		im.Pix[y*im.W+x] = src
		return
	}
	dst := im.Pix[y*im.W+x]
	a := uint32(src.A)
	ia := 255 - a
	im.Pix[y*im.W+x] = RGBA{
		R: uint8((uint32(src.R)*a + uint32(dst.R)*ia) / 255),
		G: uint8((uint32(src.G)*a + uint32(dst.G)*ia) / 255),
		B: uint8((uint32(src.B)*a + uint32(dst.B)*ia) / 255),
		A: 255,
	}
}

// FillCircle rasterizes a filled disc centered at (cx, cy).
func (im *Image) FillCircle(cx, cy, r float64, fill RGBA) {
	if fill.A == 0 || r <= 0 {
		return
	}
	x0, x1 := int(math.Floor(cx-r)), int(math.Ceil(cx+r))
	y0, y1 := int(math.Floor(cy-r)), int(math.Ceil(cy+r))
	r2 := r * r
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx, dy := float64(x)+0.5-cx, float64(y)+0.5-cy
			if dx*dx+dy*dy <= r2 {
				im.Blend(x, y, fill)
			}
		}
	}
}

// StrokeCircle rasterizes a one-pixel circle outline.
func (im *Image) StrokeCircle(cx, cy, r float64, stroke RGBA) {
	if stroke.A == 0 || r <= 0 {
		return
	}
	steps := int(math.Ceil(2 * math.Pi * r))
	if steps < 8 {
		steps = 8
	}
	for i := 0; i < steps; i++ {
		a := 2 * math.Pi * float64(i) / float64(steps)
		im.Blend(int(cx+r*math.Cos(a)), int(cy+r*math.Sin(a)), stroke)
	}
}

// FillRect rasterizes a filled axis-aligned rectangle. The extent is
// clipped to the viewport before iterating — data-driven marks (e.g. bars
// whose height tracks an aggregate) can dwarf the framebuffer, and the
// off-screen pixels Blend would reject one by one must not cost per-pixel
// work. Opaque fills write rows directly (same pixels Blend would produce).
func (im *Image) FillRect(x, y, w, h float64, fill RGBA) {
	if fill.A == 0 || w <= 0 || h <= 0 {
		return
	}
	x0, x1 := int(math.Floor(x)), int(math.Ceil(x+w))
	y0, y1 := int(math.Floor(y)), int(math.Ceil(y+h))
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > im.W {
		x1 = im.W
	}
	if y1 > im.H {
		y1 = im.H
	}
	if x0 >= x1 || y0 >= y1 {
		return
	}
	if fill.A == 255 {
		// Solid fill: write the first row pixel by pixel, then replicate it
		// into the remaining rows with copy.
		first := im.Pix[y0*im.W+x0 : y0*im.W+x1]
		for i := range first {
			first[i] = fill
		}
		for yy := y0 + 1; yy < y1; yy++ {
			copy(im.Pix[yy*im.W+x0:yy*im.W+x1], first)
		}
		return
	}
	for yy := y0; yy < y1; yy++ {
		for xx := x0; xx < x1; xx++ {
			im.Blend(xx, yy, fill)
		}
	}
}

// StrokeRect rasterizes a one-pixel rectangle outline.
func (im *Image) StrokeRect(x, y, w, h float64, stroke RGBA) {
	if stroke.A == 0 {
		return
	}
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	x1, y1 := int(math.Ceil(x+w))-1, int(math.Ceil(y+h))-1
	for xx := x0; xx <= x1; xx++ {
		im.Blend(xx, y0, stroke)
		im.Blend(xx, y1, stroke)
	}
	for yy := y0; yy <= y1; yy++ {
		im.Blend(x0, yy, stroke)
		im.Blend(x1, yy, stroke)
	}
}

// DrawLine rasterizes a line segment with Bresenham's algorithm.
func (im *Image) DrawLine(x1, y1, x2, y2 int, c RGBA) {
	dx := abs(x2 - x1)
	dy := -abs(y2 - y1)
	sx, sy := 1, 1
	if x1 > x2 {
		sx = -1
	}
	if y1 > y2 {
		sy = -1
	}
	err := dx + dy
	for {
		im.Blend(x1, y1, c)
		if x1 == x2 && y1 == y2 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x1 += sx
		}
		if e2 <= dx {
			err += dx
			y1 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// DrawText renders a string with the builtin 3×5 bitmap font at (x, y)
// (top-left anchored). Unsupported runes render as a box.
func (im *Image) DrawText(x, y int, s string, c RGBA) {
	for _, r := range strings.ToUpper(s) {
		glyph, ok := font3x5[r]
		if !ok {
			glyph = font3x5['?']
		}
		for row := 0; row < 5; row++ {
			for col := 0; col < 3; col++ {
				if glyph[row]&(1<<(2-col)) != 0 {
					im.Blend(x+col, y+row, c)
				}
			}
		}
		x += 4
	}
}

// font3x5 is a minimal bitmap font: each glyph is five rows of three bits.
var font3x5 = map[rune][5]uint8{
	'0': {0b111, 0b101, 0b101, 0b101, 0b111},
	'1': {0b010, 0b110, 0b010, 0b010, 0b111},
	'2': {0b111, 0b001, 0b111, 0b100, 0b111},
	'3': {0b111, 0b001, 0b111, 0b001, 0b111},
	'4': {0b101, 0b101, 0b111, 0b001, 0b001},
	'5': {0b111, 0b100, 0b111, 0b001, 0b111},
	'6': {0b111, 0b100, 0b111, 0b101, 0b111},
	'7': {0b111, 0b001, 0b010, 0b010, 0b010},
	'8': {0b111, 0b101, 0b111, 0b101, 0b111},
	'9': {0b111, 0b101, 0b111, 0b001, 0b111},
	'A': {0b010, 0b101, 0b111, 0b101, 0b101},
	'B': {0b110, 0b101, 0b110, 0b101, 0b110},
	'C': {0b011, 0b100, 0b100, 0b100, 0b011},
	'D': {0b110, 0b101, 0b101, 0b101, 0b110},
	'E': {0b111, 0b100, 0b110, 0b100, 0b111},
	'F': {0b111, 0b100, 0b110, 0b100, 0b100},
	'G': {0b011, 0b100, 0b101, 0b101, 0b011},
	'H': {0b101, 0b101, 0b111, 0b101, 0b101},
	'I': {0b111, 0b010, 0b010, 0b010, 0b111},
	'J': {0b001, 0b001, 0b001, 0b101, 0b010},
	'K': {0b101, 0b110, 0b100, 0b110, 0b101},
	'L': {0b100, 0b100, 0b100, 0b100, 0b111},
	'M': {0b101, 0b111, 0b111, 0b101, 0b101},
	'N': {0b101, 0b111, 0b111, 0b111, 0b101},
	'O': {0b010, 0b101, 0b101, 0b101, 0b010},
	'P': {0b110, 0b101, 0b110, 0b100, 0b100},
	'Q': {0b010, 0b101, 0b101, 0b011, 0b001},
	'R': {0b110, 0b101, 0b110, 0b110, 0b101},
	'S': {0b011, 0b100, 0b010, 0b001, 0b110},
	'T': {0b111, 0b010, 0b010, 0b010, 0b010},
	'U': {0b101, 0b101, 0b101, 0b101, 0b111},
	'V': {0b101, 0b101, 0b101, 0b101, 0b010},
	'W': {0b101, 0b101, 0b111, 0b111, 0b101},
	'X': {0b101, 0b101, 0b010, 0b101, 0b101},
	'Y': {0b101, 0b101, 0b010, 0b010, 0b010},
	'Z': {0b111, 0b001, 0b010, 0b100, 0b111},
	' ': {0, 0, 0, 0, 0},
	'-': {0, 0, 0b111, 0, 0},
	'.': {0, 0, 0, 0, 0b010},
	',': {0, 0, 0, 0b010, 0b100},
	':': {0, 0b010, 0, 0b010, 0},
	'?': {0b111, 0b001, 0b010, 0, 0b010},
	'%': {0b101, 0b001, 0b010, 0b100, 0b101},
	'/': {0b001, 0b001, 0b010, 0b100, 0b100},
}

// WritePNG encodes the framebuffer as PNG.
func (im *Image) WritePNG(w io.Writer) error {
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			p := im.Pix[y*im.W+x]
			out.SetRGBA(x, y, color.RGBA{p.R, p.G, p.B, p.A})
		}
	}
	return png.Encode(w, out)
}

// ASCII renders a down-sampled text view of the framebuffer for terminal
// output: each cell covers blockW×blockH pixels; non-background cells render
// a density character.
func (im *Image) ASCII(blockW, blockH int) string {
	if blockW < 1 {
		blockW = 1
	}
	if blockH < 1 {
		blockH = 1
	}
	var b strings.Builder
	ramp := []byte(" .:-=+*#%@")
	for y := 0; y < im.H; y += blockH {
		for x := 0; x < im.W; x += blockW {
			var ink float64
			var n int
			for yy := y; yy < y+blockH && yy < im.H; yy++ {
				for xx := x; xx < x+blockW && xx < im.W; xx++ {
					p := im.Pix[yy*im.W+xx]
					lum := 0.299*float64(p.R) + 0.587*float64(p.G) + 0.114*float64(p.B)
					ink += (255 - lum) / 255
					n++
				}
			}
			idx := int(ink / float64(n) * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// NonBackgroundCount returns the number of pixels that differ from the white
// background, a cheap structural check used by tests and benchmarks.
func (im *Image) NonBackgroundCount() int {
	n := 0
	white := RGBA{255, 255, 255, 255}
	for _, p := range im.Pix {
		if p != white {
			n++
		}
	}
	return n
}
