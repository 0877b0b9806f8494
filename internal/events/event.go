// Package events implements DVMS's Event Recognizer (Fig 3): low-level user
// input events modeled as CQL-style streams, and compound events extracted
// by a SASE-style NFA compiled from DeVIL EVENT statements (§2.1.2).
//
// The recognizer also defines interaction transaction boundaries: the NFA's
// start state begins a transaction, the accept state commits it, and reject
// states (failed FORALL/EXISTS quantifiers) abort it.
package events

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Standard low-level event types used throughout the repository. Any
// uppercase identifier is a legal type; these are the ones the paper's
// examples use.
const (
	MouseDown = "MOUSE_DOWN"
	MouseMove = "MOUSE_MOVE"
	MouseUp   = "MOUSE_UP"
	KeyPress  = "KEY_PRESS"
	Hover     = "HOVER"
)

// Event is one low-level input event: an ⟨s, t⟩ pair from the paper's CQL
// stream model, with the payload attributes of the event type.
type Event struct {
	Type  string
	T     int64 // timestamp (ms in examples; any monotone unit works)
	Attrs map[string]relation.Value
}

// Mouse constructs a mouse event with x/y payload, the shape used by
// MOUSE_DOWN / MOUSE_MOVE / MOUSE_UP / HOVER.
func Mouse(typ string, t, x, y int64) Event {
	return Event{Type: typ, T: t, Attrs: map[string]relation.Value{
		"x": relation.Int(x),
		"y": relation.Int(y),
	}}
}

// Key constructs a KEY_PRESS event.
func Key(t int64, key string) Event {
	return Event{Type: KeyPress, T: t, Attrs: map[string]relation.Value{
		"key": relation.String(key),
	}}
}

// Attr returns a payload attribute; "t" resolves to the timestamp. Names
// match without regard to case, like every other DeVIL column reference:
// an exact match wins, then a case-folded one.
func (e Event) Attr(name string) (relation.Value, bool) {
	if name == "t" {
		return relation.Int(e.T), true
	}
	if v, ok := e.Attrs[name]; ok {
		return v, true
	}
	if strings.EqualFold(name, "t") {
		return relation.Int(e.T), true
	}
	for k, v := range e.Attrs {
		if strings.EqualFold(k, name) {
			return v, true
		}
	}
	return relation.Null(), false
}

// String renders the event compactly.
func (e Event) String() string {
	if x, ok := e.Attrs["x"]; ok {
		y := e.Attrs["y"]
		return fmt.Sprintf("%s(%d,%s,%s)", e.Type, e.T, x, y)
	}
	return fmt.Sprintf("%s(%d)", e.Type, e.T)
}

// Stream is an ordered sequence of events, used by workload generators and
// tests.
type Stream []Event

// Drag builds the canonical mouse-drag stream: down at (x0,y0), moves along
// the interpolated path, up at (x1,y1), with one time unit per event
// starting at t0.
func Drag(t0, x0, y0, x1, y1 int64, moves int) Stream {
	s := Stream{Mouse(MouseDown, t0, x0, y0)}
	t := t0
	for i := 1; i <= moves; i++ {
		t++
		x := x0 + (x1-x0)*int64(i)/int64(moves+1)
		y := y0 + (y1-y0)*int64(i)/int64(moves+1)
		s = append(s, Mouse(MouseMove, t, x, y))
	}
	s = append(s, Mouse(MouseUp, t+1, x1, y1))
	return s
}
