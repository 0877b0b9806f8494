package core

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/render"
)

// The framebuffer is the pixels relation P of §2.1.1, which the paper has
// the rendering device maintain rather than materialize. Changes only mark
// it stale; it is rasterized when a host reads it (Image, Pixels), so an
// engine whose frame nobody reads never paints.

// Image returns the framebuffer, first rasterizing the render sinks' current
// contents onto it when a change since the last read left it stale; the
// first call allocates it. The pointer is stable for the engine's lifetime,
// but the pixels are current as of this call only: a host that holds the
// pointer across events must call Image again. Only Image and Pixels write
// the pixels, so a host that reads the frame from two goroutines must not
// read the returned image while the other calls either (use Pixels for a
// consistent copy).
func (e *Engine) Image() *render.Image {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.frame()
}

// Pixels materializes the pixels relation P(x,y,r,g,b,a) on demand, from the
// frame Image would return.
func (e *Engine) Pixels(sparse bool) *relation.Relation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return render.PixelsRelation(e.frame(), sparse)
}

// FrameOracle returns, under one hold of the engine lock, a copy of the
// frame Image returns and the parity walls' oracle for it: the current sink
// relations rasterized from scratch into a fresh image, in definition order,
// each through a binding made anew. The two are pixel-identical unless a
// path that changed a sink left the frame fresh, or a binding outlived its
// schema.
func (e *Engine) FrameOracle() (frame, oracle *render.Image, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	img := e.frame()
	frame = &render.Image{W: img.W, H: img.H, Pix: slices.Clone(img.Pix)}
	oracle = render.NewImage(e.cfg.Width, e.cfg.Height)
	for _, name := range e.viewOrder {
		v := e.views[keyOf(name)]
		if v.renderAs == nil {
			continue
		}
		rel, err := e.store.Get(v.name)
		if err != nil {
			return nil, nil, err
		}
		b, err := render.BindSink(rel.Schema, v.renderAs.markType)
		if err != nil {
			return nil, nil, fmt.Errorf("render %s: %w", v.name, err)
		}
		b.Draw(oracle, rel.Rows)
	}
	return frame, oracle, nil
}

// frame brings the framebuffer up to date and returns it: when stale, every
// sink is rasterized, in definition order, onto a cleared image. The pass is
// counted in Stats.RenderPasses and timed into the render stage, outside any
// event trace. Caller holds e.mu.
func (e *Engine) frame() *render.Image {
	fresh := e.img == nil
	if fresh {
		e.img = render.NewImage(e.cfg.Width, e.cfg.Height)
	}
	if !e.stale {
		return e.img
	}
	e.stale = false
	if !fresh {
		e.img.Clear()
	}
	if len(e.sinks) == 0 {
		return e.img
	}
	tRender := e.obs.Now()
	e.Stats.RenderPasses++
	for _, v := range e.sinks {
		rel, ok := e.store.rels[v.key]
		// A sink without a binding for its schema failed the statement that
		// gave it that schema (bindSink); it paints nothing.
		if b := v.renderAs.bind; ok && b != nil && b.Fits(rel.Schema) {
			b.Draw(e.img, rel.Rows)
		}
	}
	e.obs.Span(nil, obs.StageRender, "", "", tRender, 0, 0)
	return e.img
}

// sinksChanged is refresh's render stage: when a sink's contents changed it
// marks the frame stale and checks that the sink's binding still fits its
// schema, which a (re)definition can change; otherwise it counts a render
// skip.
func (e *Engine) sinksChanged(changes map[string]*relation.Delta) error {
	if len(e.sinks) == 0 {
		return nil
	}
	changed := false
	for _, v := range e.sinks {
		cd, ok := changes[v.key]
		if !ok || (cd != nil && cd.Empty()) {
			continue
		}
		changed, e.stale = true, true
		if err := e.bindSink(v); err != nil {
			return err
		}
	}
	if !changed {
		e.Stats.RenderSkips++
	}
	return nil
}

// frameStale marks the frame stale after a change that may have replaced
// any sink's contents, schema included: a RecomputeAll refresh, a rollback,
// an undo, a recovery. Every sink rebinds if its schema changed.
func (e *Engine) frameStale() error {
	e.stale = true
	for _, v := range e.sinks {
		if err := e.bindSink(v); err != nil {
			return err
		}
	}
	return nil
}

// bindSink resolves a sink's marks binding against its relation's current
// schema, keeping the binding it has when the schema did not change. Its
// error fails the statement (or undo, or recovery) that gave the sink a
// schema it cannot render, so reading the frame never fails.
func (e *Engine) bindSink(v *view) error {
	rel, ok := e.store.rels[v.key]
	if !ok {
		_, err := e.store.Get(v.name)
		return err
	}
	if b := v.renderAs.bind; b != nil && b.Fits(rel.Schema) {
		return nil
	}
	b, err := render.BindSink(rel.Schema, v.renderAs.markType)
	if err != nil {
		return fmt.Errorf("render %s: %w", v.name, err)
	}
	v.renderAs.bind = b
	return nil
}
