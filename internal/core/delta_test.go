package core

import (
	"testing"

	"repro/internal/relation"
)

// loadDeltaSafe builds an engine whose view chain (join → aggregate →
// project → sink) is fully delta-safe: no subqueries, no version reads.
func loadDeltaSafe(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	err := e.LoadProgram(`
CREATE TABLE T (k int, val int);
INSERT INTO T VALUES (1, 10), (1, 20), (2, 30);
CREATE TABLE S (k int, name string);
INSERT INTO S VALUES (1, 'one'), (2, 'two');
J = SELECT s.name AS name, sum(t.val) AS total FROM T AS t, S AS s WHERE t.k = s.k GROUP BY s.name;
BARS = SELECT total AS x, 10 AS y, 5 AS width, 8 AS height, 'blue' AS fill FROM J;
P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');
`)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func totalsOf(t *testing.T, e *Engine) map[string]int64 {
	t.Helper()
	j, err := e.Relation("J")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, row := range j.Rows {
		n, _ := row[1].AsInt()
		out[row[0].AsString()] = n
	}
	return out
}

func TestDeltaPathMaintainsViews(t *testing.T) {
	e := loadDeltaSafe(t, Config{})
	base := e.Stats.ViewDeltaApplies

	if err := e.Exec("INSERT INTO T VALUES (1, 5)"); err != nil {
		t.Fatal(err)
	}
	if got := totalsOf(t, e); got["one"] != 35 || got["two"] != 30 {
		t.Fatalf("totals after insert = %v", got)
	}
	if e.Stats.ViewDeltaApplies <= base {
		t.Fatalf("insert should flow through the delta path (applies=%d)", e.Stats.ViewDeltaApplies)
	}

	if err := e.Exec("DELETE FROM T WHERE val = 20"); err != nil {
		t.Fatal(err)
	}
	if got := totalsOf(t, e); got["one"] != 15 || got["two"] != 30 {
		t.Fatalf("totals after delete = %v", got)
	}

	// Deleting every k=2 row removes the group entirely.
	if err := e.Exec("DELETE FROM T WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	got := totalsOf(t, e)
	if _, ok := got["two"]; ok || got["one"] != 15 {
		t.Fatalf("totals after group removal = %v", got)
	}
	if e.Stats.ViewRecomputes != 0 {
		// All recomputes so far happened during load; reset-free mutation
		// stream must not add any.
		t.Logf("view recomputes = %d (load-time only)", e.Stats.ViewRecomputes)
	}
}

func TestEmptyDeltaShortCircuitSkipsDownstreamAndRender(t *testing.T) {
	e := loadDeltaSafe(t, Config{})
	e.Image() // the frame is fresh from here on
	renders := e.Stats.RenderPasses
	skips := e.Stats.RenderSkips
	empties := e.Stats.EmptyDeltaSkips

	// k=3 joins nothing: J's output delta is empty, BARS must not be
	// touched, and the framebuffer must stay fresh: reading it redraws
	// nothing.
	if err := e.Exec("INSERT INTO T VALUES (3, 99)"); err != nil {
		t.Fatal(err)
	}
	e.Image()
	if e.Stats.RenderPasses != renders {
		t.Fatalf("no-op change re-rendered (passes %d -> %d)", renders, e.Stats.RenderPasses)
	}
	if e.Stats.RenderSkips <= skips {
		t.Fatalf("render skip not counted (skips=%d)", e.Stats.RenderSkips)
	}
	if e.Stats.EmptyDeltaSkips <= empties {
		t.Fatalf("empty-delta skip not counted (skips=%d)", e.Stats.EmptyDeltaSkips)
	}

	// A change that does reach the sink makes the next read re-render.
	if err := e.Exec("INSERT INTO T VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	e.Image()
	if e.Stats.RenderPasses <= renders {
		t.Fatal("real change should re-render")
	}
}

func TestInsertRowsHostAPI(t *testing.T) {
	e := loadDeltaSafe(t, Config{})
	rows := []relation.Tuple{
		{relation.Int(1), relation.Int(100)},
		{relation.Int(2), relation.Int(200)},
	}
	if err := e.InsertRows("T", rows); err != nil {
		t.Fatal(err)
	}
	if got := totalsOf(t, e); got["one"] != 130 || got["two"] != 230 {
		t.Fatalf("totals after InsertRows = %v", got)
	}
	if err := e.InsertRows("J", rows); err == nil {
		t.Fatal("InsertRows into a view should fail")
	}
	if err := e.InsertRows("T", []relation.Tuple{{relation.Int(1)}}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestUndoResetsDeltaStateAndRecovers(t *testing.T) {
	e := loadDeltaSafe(t, Config{})
	if err := e.Exec("INSERT INTO T VALUES (1, 5)"); err != nil {
		t.Fatal(err)
	}
	e.Commit()
	if err := e.Undo(); err != nil {
		t.Fatal(err)
	}
	// The undo rewrote the store without deltas; the next mutation must
	// fall back to a full recompute (re-priming) and still be correct.
	fallbacks := e.Stats.FullFallbacks
	if err := e.Exec("INSERT INTO T VALUES (2, 7)"); err != nil {
		t.Fatal(err)
	}
	if e.Stats.FullFallbacks <= fallbacks {
		t.Fatalf("post-undo mutation should fall back (fallbacks=%d)", e.Stats.FullFallbacks)
	}
	if got := totalsOf(t, e); got["one"] != 30 || got["two"] != 37 {
		t.Fatalf("totals after undo+insert = %v", got)
	}
	// And the path re-primes: the following mutation is incremental again.
	applies := e.Stats.ViewDeltaApplies
	if err := e.Exec("INSERT INTO T VALUES (2, 3)"); err != nil {
		t.Fatal(err)
	}
	if e.Stats.ViewDeltaApplies <= applies {
		t.Fatal("pipeline should be primed again after the fallback recompute")
	}
	if got := totalsOf(t, e); got["two"] != 40 {
		t.Fatalf("totals after re-primed insert = %v", got)
	}
}

func TestRecomputeAllStaysFullRecompute(t *testing.T) {
	e := loadDeltaSafe(t, Config{RecomputeAll: true})
	if err := e.Exec("INSERT INTO T VALUES (1, 5)"); err != nil {
		t.Fatal(err)
	}
	if e.Stats.ViewDeltaApplies != 0 {
		t.Fatalf("RecomputeAll engine used the delta path %d times", e.Stats.ViewDeltaApplies)
	}
	if got := totalsOf(t, e); got["one"] != 35 {
		t.Fatalf("totals = %v", got)
	}
}

// Float-measure parity (ROADMAP "float-sum exactness"): incremental SUM
// over float columns must match a fresh recomputation exactly, even when
// the add/remove order would drift under naive summation. The engine's
// delta path must survive a large transient value entering and leaving a
// group without perturbing the small residue.
func TestDeltaFloatSumParityWithRecompute(t *testing.T) {
	e := New(Config{})
	if err := e.LoadProgram(`
CREATE TABLE T (k int, v float);
INSERT INTO T VALUES (1, 1.0), (2, 0.5);
V = SELECT k AS k, sum(v) AS s FROM T GROUP BY k;
`); err != nil {
		t.Fatal(err)
	}
	big := []relation.Tuple{{relation.Int(1), relation.Float(1e16)}}
	if err := e.InsertRows("T", big); err != nil {
		t.Fatal(err)
	}
	applies := e.Stats.ViewDeltaApplies
	if err := e.Exec("DELETE FROM T WHERE v > 1000000.0"); err != nil {
		t.Fatal(err)
	}
	if e.Stats.ViewDeltaApplies <= applies {
		t.Fatal("float SUM mutation should flow through the delta path")
	}
	v, err := e.Relation("V")
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: recompute the same aggregate from scratch over live T.
	want, err := e.Query("SELECT k AS k, sum(v) AS s FROM T GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(v, want) {
		t.Fatalf("incremental float SUM diverges from recompute\nincremental:\n%s\nrecompute:\n%s", v, want)
	}
	for _, row := range v.Rows {
		k, _ := row[0].AsInt()
		s, _ := row[1].AsFloat()
		if k == 1 && s != 1.0 {
			t.Fatalf("group 1 sum = %v, want exactly 1 (naive summation loses the residue)", s)
		}
	}
}
