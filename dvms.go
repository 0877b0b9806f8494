// Package dvms is the public API of this repository: a Data Visualization
// Management System (DVMS) with the DeVIL language, reproducing Wu et al.,
// "Combining Design and Performance in a Data Visualization Management
// System", CIDR 2017.
//
// A System hosts one interactive visualization: load a DeVIL program (base
// tables, views, marks relations, EVENT statements, render() sinks), feed
// low-level input events, and observe relations, versions, and pixels.
//
//	sys := dvms.New()
//	err := sys.Load(program)          // DeVIL 1-4 style statements
//	sys.Feed(dvms.MouseDown(0, 5, 15))
//	sel, err := sys.Relation("selected")
//	img := sys.Image()                // rasterized marks
//
// The subsystems behind the facade live in internal/: the relational engine
// (relation, expr, parser, plan, exec), the event recognizer (events), the
// rasterizer (render), the engine core (core), and the DVMS ecosystem
// reproductions (cc, stream, precision) driven by internal/experiments.
package dvms

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/render"
)

// Event is a low-level user input event (§2.1.2's ⟨s, t⟩ pairs).
type Event = events.Event

// Stream is an ordered event sequence.
type Stream = events.Stream

// Relation is a named, schema-typed bag of tuples; all system state is
// exposed as relations.
type Relation = relation.Relation

// Value is a dynamically typed scalar; UDFs consume and produce Values.
type Value = relation.Value

// Tuple is one relation row, a Value slice.
type Tuple = relation.Tuple

// Value constructors re-exported for UDF authors.
var (
	// Null returns the NULL value.
	Null = relation.Null
	// Bool wraps a boolean.
	Bool = relation.Bool
	// Int wraps an integer.
	Int = relation.Int
	// Float wraps a float.
	Float = relation.Float
	// Str wraps a string (named Str to avoid colliding with fmt.Stringer
	// conventions on the package surface).
	Str = relation.String
)

// VersionRef names a relation state in time (@vnow-i / @tnow-j).
type VersionRef = relation.VersionRef

// Image is the rasterizer framebuffer behind the pixels relation.
type Image = render.Image

// TxnEvent summarizes how one fed event advanced the interaction
// transaction (begin / rows emitted / commit / abort).
type TxnEvent = core.TxnEvent

// Config mirrors core.Config: framebuffer size, version-history depth, and
// the maintenance/provenance strategy toggles used by the ablations.
type Config = core.Config

// Func is a pure scalar UDF registrable on a System.
type Func = expr.Func

// Event constructors re-exported for hosts and examples.
var (
	// VNow builds an @vnow-i version reference.
	VNow = relation.VNow
	// TNow builds a @tnow-j version reference.
	TNow = relation.TNow
	// Drag synthesizes a down-move*-up stream between two points.
	Drag = events.Drag
)

// MouseDown builds a MOUSE_DOWN event at time t and position (x, y).
func MouseDown(t, x, y int64) Event { return events.Mouse(events.MouseDown, t, x, y) }

// MouseMove builds a MOUSE_MOVE event.
func MouseMove(t, x, y int64) Event { return events.Mouse(events.MouseMove, t, x, y) }

// MouseUp builds a MOUSE_UP event.
func MouseUp(t, x, y int64) Event { return events.Mouse(events.MouseUp, t, x, y) }

// Hover builds a HOVER event.
func Hover(t, x, y int64) Event { return events.Mouse(events.Hover, t, x, y) }

// KeyPress builds a KEY_PRESS event.
func KeyPress(t int64, key string) Event { return events.Key(t, key) }

// System is one DVMS instance.
type System struct {
	eng *core.Engine
}

// New creates a System; pass at most one Config.
func New(cfg ...Config) *System {
	c := Config{}
	if len(cfg) > 1 {
		panic("dvms.New: pass at most one Config")
	}
	if len(cfg) == 1 {
		c = cfg[0]
	}
	return &System{eng: core.New(c)}
}

// Load parses and applies a DeVIL program, computes all views, renders, and
// commits the result as version 0 (so @vnow-1 resolves during the first
// interaction).
func (s *System) Load(program string) error { return s.eng.LoadProgram(program) }

// Exec applies further DeVIL statements without committing.
func (s *System) Exec(statements string) error { return s.eng.Exec(statements) }

// InsertRows bulk-appends rows to a base table through the host API,
// bypassing the DeVIL parser. The change flows through incremental view
// maintenance like any INSERT: views are updated by delta where possible.
func (s *System) InsertRows(table string, rows []Tuple) error {
	return s.eng.InsertRows(table, rows)
}

// Feed routes events through the recognizers, maintaining views, pixels,
// and transactions. It returns the transaction summary of the final event.
func (s *System) Feed(evs ...Event) (TxnEvent, error) {
	var last TxnEvent
	for _, ev := range evs {
		te, err := s.eng.FeedEvent(ev)
		if err != nil {
			return last, err
		}
		last = te
	}
	return last, nil
}

// FeedStream feeds a whole stream, returning per-event summaries.
func (s *System) FeedStream(stream Stream) ([]TxnEvent, error) {
	return s.eng.FeedStream(stream)
}

// Relation returns the current contents of a base relation or view.
func (s *System) Relation(name string) (*Relation, error) { return s.eng.Relation(name) }

// RelationAt returns a relation at a version reference (undo history,
// mid-transaction event states).
func (s *System) RelationAt(name string, v VersionRef) (*Relation, error) {
	return s.eng.RelationAt(name, v)
}

// Query evaluates an ad-hoc DeVIL query against current state.
func (s *System) Query(q string) (*Relation, error) { return s.eng.Query(q) }

// Image returns the framebuffer produced by the program's render() sinks,
// rasterized when read: call it again after feeding events.
func (s *System) Image() *Image { return s.eng.Image() }

// Pixels materializes the pixels relation P(x, y, r, g, b, a); sparse skips
// background pixels.
func (s *System) Pixels(sparse bool) *Relation { return s.eng.Pixels(sparse) }

// SavePNG writes the current framebuffer to a PNG file.
func (s *System) SavePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.eng.Image().WritePNG(f); err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return nil
}

// ASCII renders a terminal view of the framebuffer with the given
// downsampling block size.
func (s *System) ASCII(blockW, blockH int) string { return s.eng.Image().ASCII(blockW, blockH) }

// Undo rewinds to the previous committed version (§2.1.3 undo/redo via
// versioning).
func (s *System) Undo() error { return s.eng.Undo() }

// Commit manually checkpoints the current state as a version.
func (s *System) Commit() int { return s.eng.Commit() }

// InTxn reports whether an interaction transaction is in flight.
func (s *System) InTxn() bool { return s.eng.InTxn() }

// Warnings returns static-analysis warnings from program loading (e.g.
// ambiguous interaction pairs).
func (s *System) Warnings() []string { return s.eng.Warnings() }

// Views lists view names in definition order.
func (s *System) Views() []string { return s.eng.ViewNames() }

// RegisterFunc installs a pure scalar UDF; call before Load.
func (s *System) RegisterFunc(f Func) { s.eng.Funcs().Register(f) }

// Stats exposes engine work counters (view recomputes, renders, commits),
// snapshotted under the engine lock so concurrent hosts read them without
// tearing.
func (s *System) Stats() core.Stats { return s.eng.StatsSnapshot() }

// Deconstruct recovers the data bound to each mark of a marks view from
// provenance (§3.1 deconstruction/restyling): the result joins mark
// attributes with the generating rows of the base relation.
func (s *System) Deconstruct(markView, base string) (*Relation, error) {
	return s.eng.Deconstruct(markView, base)
}

// Lineage returns, per requested output row of a view, the contributing row
// indices of a base relation (§3.1 explanation use case).
func (s *System) Lineage(view string, rows []int, base string) ([][]int, error) {
	return s.eng.Lineage(view, rows, base)
}

// ExplainView returns a view's optimized logical plan.
func (s *System) ExplainView(name string) (string, error) { return s.eng.ExplainView(name) }

// DebugReport exposes the visualization workflow state for inspection
// (§3.1 interaction debugging).
func (s *System) DebugReport() string { return s.eng.DebugReport() }
