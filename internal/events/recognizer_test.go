package events

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/relation"
)

// deVIL2 is the paper's DeVIL 2 listing, verbatim.
const deVIL2 = `
C =
 EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
 WHERE FORALL m IN M m.y > 5
 RETURN
   (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
   (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy)`

func compileSrc(t *testing.T, src string) *Recognizer {
	t.Helper()
	stmts, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := stmts[0].(*parser.EventStmt)
	if !ok {
		t.Fatalf("statement is %T", stmts[0])
	}
	r, err := Compile(ev, expr.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func feed(t *testing.T, r *Recognizer, ev Event) Actions {
	t.Helper()
	acts, err := r.Feed(ev)
	if err != nil {
		t.Fatalf("feed %s: %v", ev, err)
	}
	return acts
}

func intRow(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Int(v)
	}
	return t
}

// TestTable1Verbatim replays the exact event sequence of Table 1 and asserts
// the exact contents of the compound event table C.
func TestTable1Verbatim(t *testing.T) {
	r := compileSrc(t, deVIL2)
	if r.Name() != "C" {
		t.Fatalf("name = %s", r.Name())
	}
	if names := r.Schema().Names(); len(names) != 5 ||
		names[0] != "t" || names[1] != "x" || names[2] != "y" ||
		names[3] != "dx" || names[4] != "dy" {
		t.Fatalf("schema names = %v", names)
	}

	var table []relation.Tuple

	// MOUSE_DOWN(0,5,15) inserts the first record and begins the txn.
	acts := feed(t, r, Mouse(MouseDown, 0, 5, 15))
	if !acts.Began {
		t.Fatal("down should begin the transaction")
	}
	if len(acts.Rows) != 1 {
		t.Fatalf("down emitted %d rows, want 1", len(acts.Rows))
	}
	table = append(table, acts.Rows...)

	// MOUSE_MOVE(1,6,17) inserts (1,5,15,1,2).
	acts = feed(t, r, Mouse(MouseMove, 1, 6, 17))
	if acts.Began || acts.Committed || acts.Aborted {
		t.Fatalf("move actions = %+v", acts)
	}
	if len(acts.Rows) != 1 {
		t.Fatalf("move emitted %d rows", len(acts.Rows))
	}
	table = append(table, acts.Rows...)

	// ... more MOUSE_MOVE events ... (the paper elides them; we add one
	// intermediate move to exercise the Kleene loop)
	acts = feed(t, r, Mouse(MouseMove, 20, 8, 12))
	table = append(table, acts.Rows...)

	// MOUSE_MOVE(40,10,10) inserts (40,5,15,5,-5).
	acts = feed(t, r, Mouse(MouseMove, 40, 10, 10))
	table = append(table, acts.Rows...)

	// MOUSE_UP(41,10,10) terminates the query: commits, inserts nothing.
	acts = feed(t, r, Mouse(MouseUp, 41, 10, 10))
	if !acts.Committed {
		t.Fatal("up should commit")
	}
	if len(acts.Rows) != 0 {
		t.Fatalf("up emitted %d rows, want 0 (U appears in no projection)", len(acts.Rows))
	}
	if r.Active() {
		t.Fatal("recognizer should be idle after commit")
	}

	want := []relation.Tuple{
		intRow(0, 5, 15, 0, 0),
		intRow(1, 5, 15, 1, 2),
		intRow(20, 5, 15, 3, -3),
		intRow(40, 5, 15, 5, -5),
	}
	if len(table) != len(want) {
		t.Fatalf("C has %d rows, want %d", len(table), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !table[i][c].Equal(want[i][c]) {
				t.Errorf("C[%d][%d] = %s, want %s", i, c, table[i][c], want[i][c])
			}
		}
	}
}

// TestForallReject: a move with y <= 5 violates FORALL and aborts the
// transaction (the NFA's reject state).
func TestForallReject(t *testing.T) {
	r := compileSrc(t, deVIL2)
	feed(t, r, Mouse(MouseDown, 0, 5, 15))
	acts := feed(t, r, Mouse(MouseMove, 1, 6, 3)) // y=3 violates m.y > 5
	if !acts.Aborted {
		t.Fatal("FORALL violation should abort")
	}
	if r.Active() {
		t.Fatal("recognizer should be idle after abort")
	}
	// A new interaction can begin cleanly afterwards.
	acts = feed(t, r, Mouse(MouseDown, 10, 1, 20))
	if !acts.Began {
		t.Fatal("new interaction should begin after abort")
	}
}

// TestNonMatchingTypesFiltered: key presses are not in the pattern alphabet
// and must be filtered without disturbing the match.
func TestNonMatchingTypesFiltered(t *testing.T) {
	r := compileSrc(t, deVIL2)
	feed(t, r, Mouse(MouseDown, 0, 5, 15))
	acts := feed(t, r, Key(1, "a"))
	if !acts.Filtered {
		t.Fatal("key press should be filtered")
	}
	if !r.Active() {
		t.Fatal("filtered event must not abort the match")
	}
	acts = feed(t, r, Mouse(MouseUp, 2, 5, 15))
	if !acts.Committed {
		t.Fatal("drag should still commit after filtered event")
	}
}

// TestIdleMidPatternFiltered: move/up while idle never starts a transaction.
func TestIdleMidPatternFiltered(t *testing.T) {
	r := compileSrc(t, deVIL2)
	for _, ev := range []Event{Mouse(MouseMove, 0, 1, 10), Mouse(MouseUp, 1, 1, 10)} {
		acts := feed(t, r, ev)
		if !acts.Filtered || acts.Began {
			t.Fatalf("%s while idle: %+v", ev, acts)
		}
	}
}

// TestZeroMoves: a click (down immediately followed by up) matches with zero
// Kleene repetitions.
func TestZeroMoves(t *testing.T) {
	r := compileSrc(t, deVIL2)
	feed(t, r, Mouse(MouseDown, 0, 5, 15))
	acts := feed(t, r, Mouse(MouseUp, 1, 5, 15))
	if !acts.Committed {
		t.Fatal("zero-move drag should commit")
	}
}

// TestPlainPredicateFilters: per-event predicates drop events from the input
// stream without transitioning the NFA. The paper's example: D.y > 20
// removes mouse down events below 20 pixels.
func TestPlainPredicateFilters(t *testing.T) {
	src := `
C = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U
    WHERE D.y > 20
    RETURN (D.t, D.x, D.y)`
	r := compileSrc(t, src)
	acts := feed(t, r, Mouse(MouseDown, 0, 5, 10)) // y=10 fails D.y > 20
	if !acts.Filtered || acts.Began {
		t.Fatalf("down failing filter: %+v", acts)
	}
	acts = feed(t, r, Mouse(MouseDown, 1, 5, 30))
	if !acts.Began {
		t.Fatal("down passing filter should begin")
	}
	acts = feed(t, r, Mouse(MouseUp, 2, 5, 30))
	if !acts.Committed {
		t.Fatal("should commit")
	}
}

// TestExistsQuantifier: EXISTS must be satisfied by accept time or the
// transaction aborts.
func TestExistsQuantifier(t *testing.T) {
	src := `
C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
    WHERE EXISTS m IN M m.x > 100
    RETURN (D.t)`
	r := compileSrc(t, src)

	// No move crosses x>100: abort at accept.
	feed(t, r, Mouse(MouseDown, 0, 0, 0))
	feed(t, r, Mouse(MouseMove, 1, 50, 0))
	acts := feed(t, r, Mouse(MouseUp, 2, 50, 0))
	if !acts.Aborted || acts.Committed {
		t.Fatalf("unsatisfied EXISTS: %+v", acts)
	}

	// One move crosses: commit.
	feed(t, r, Mouse(MouseDown, 10, 0, 0))
	feed(t, r, Mouse(MouseMove, 11, 150, 0))
	acts = feed(t, r, Mouse(MouseUp, 12, 150, 0))
	if !acts.Committed {
		t.Fatalf("satisfied EXISTS: %+v", acts)
	}
}

// TestCompileRejectsTrailingKleene: sequences must end with a non-repeating
// event (§2.1.2's never-ending transaction constraint).
func TestCompileRejectsTrailingKleene(t *testing.T) {
	src := `C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M RETURN (D.t)`
	stmts, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(stmts[0].(*parser.EventStmt), expr.NewRegistry()); err == nil {
		t.Fatal("trailing Kleene element should be rejected")
	}
}

// TestCompileRejectsArityMismatch: RETURN groups must be union compatible.
func TestCompileRejectsArityMismatch(t *testing.T) {
	src := `C = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U RETURN (D.t), (U.t, U.x)`
	stmts, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(stmts[0].(*parser.EventStmt), expr.NewRegistry()); err == nil {
		t.Fatal("arity mismatch should be rejected")
	}
}

// TestCompileRejectsCrossAliasPlainPredicate: plain predicates are
// per-event; cross-event conditions need quantifiers.
func TestCompileRejectsCrossAliasPlainPredicate(t *testing.T) {
	src := `C = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U WHERE U.x > D.x RETURN (D.t)`
	stmts, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(stmts[0].(*parser.EventStmt), expr.NewRegistry()); err == nil {
		t.Fatal("cross-alias plain predicate should be rejected")
	}
}

// TestRepeatedInteractions: the recognizer handles many sequential drags.
func TestRepeatedInteractions(t *testing.T) {
	r := compileSrc(t, deVIL2)
	for k := 0; k < 10; k++ {
		base := int64(k * 100)
		var committed bool
		for _, ev := range Drag(base, 0, 10, 50, 40, 5) {
			acts := feed(t, r, ev)
			if acts.Committed {
				committed = true
			}
		}
		if !committed {
			t.Fatalf("drag %d did not commit", k)
		}
	}
}

// TestDragHelperShape sanity-checks the synthetic drag generator used across
// benchmarks.
func TestDragHelperShape(t *testing.T) {
	s := Drag(0, 0, 0, 100, 100, 9)
	if len(s) != 11 {
		t.Fatalf("drag length = %d", len(s))
	}
	if s[0].Type != MouseDown || s[len(s)-1].Type != MouseUp {
		t.Fatal("drag must start with down and end with up")
	}
	for i := 1; i < len(s); i++ {
		if s[i].T <= s[i-1].T {
			t.Fatal("timestamps must be strictly increasing")
		}
	}
}

// TestResetMidMatch: Reset aborts in-flight state so a fresh match can start.
func TestResetMidMatch(t *testing.T) {
	r := compileSrc(t, deVIL2)
	feed(t, r, Mouse(MouseDown, 0, 5, 15))
	if !r.Active() {
		t.Fatal("should be active")
	}
	r.Reset()
	if r.Active() {
		t.Fatal("should be idle after reset")
	}
	acts := feed(t, r, Mouse(MouseDown, 1, 5, 15))
	if !acts.Began {
		t.Fatal("fresh match should begin after reset")
	}
}

func TestFirstType(t *testing.T) {
	r := compileSrc(t, deVIL2)
	if r.FirstType() != MouseDown {
		t.Fatalf("first type = %s", r.FirstType())
	}
}

// TestMultipleKleeneElements: a pattern with two consecutive Kleene
// elements (move-drag with optional hover settling) — both may match zero
// or more events, and either may be skipped entirely.
func TestMultipleKleeneElements(t *testing.T) {
	src := `C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, HOVER* AS H, MOUSE_UP AS U
	       RETURN (D.t, 0 AS kind),
	              (M.t, 1 AS kind),
	              (H.t, 2 AS kind)`
	r := compileSrc(t, src)

	// moves then hovers then up
	feed(t, r, Mouse(MouseDown, 0, 1, 10))
	feed(t, r, Mouse(MouseMove, 1, 2, 10))
	feed(t, r, Mouse(Hover, 2, 2, 10))
	acts := feed(t, r, Mouse(MouseUp, 3, 2, 10))
	if !acts.Committed {
		t.Fatal("full pattern should commit")
	}

	// both Kleene groups skipped: down then up
	feed(t, r, Mouse(MouseDown, 10, 1, 10))
	acts = feed(t, r, Mouse(MouseUp, 11, 1, 10))
	if !acts.Committed {
		t.Fatal("zero-repetition pattern should commit")
	}

	// a move AFTER a hover cannot re-enter the earlier Kleene element:
	// it is filtered, and the pattern still completes.
	feed(t, r, Mouse(MouseDown, 20, 1, 10))
	feed(t, r, Mouse(Hover, 21, 1, 10))
	acts = feed(t, r, Mouse(MouseMove, 22, 2, 10))
	if !acts.Filtered {
		t.Fatalf("move after hover should be filtered: %+v", acts)
	}
	acts = feed(t, r, Mouse(MouseUp, 23, 2, 10))
	if !acts.Committed {
		t.Fatal("pattern should still commit after the filtered event")
	}
}

// TestEmissionOrderWithinEvent: multiple RETURN groups anchored to the same
// position emit rows in group order.
func TestEmissionOrderWithinEvent(t *testing.T) {
	src := `C = EVENT MOUSE_DOWN AS D, MOUSE_UP AS U
	       RETURN (D.t, 1 AS tag), (D.t, 2 AS tag)`
	r := compileSrc(t, src)
	acts := feed(t, r, Mouse(MouseDown, 0, 5, 5))
	if len(acts.Rows) != 2 {
		t.Fatalf("rows = %d", len(acts.Rows))
	}
	t1, _ := acts.Rows[0][1].AsInt()
	t2, _ := acts.Rows[1][1].AsInt()
	if t1 != 1 || t2 != 2 {
		t.Fatalf("emission order = %d, %d", t1, t2)
	}
}

// TestAliasCaseResolves: aliases resolve case-insensitively in plain
// filters, FORALL and EXISTS conditions, quantifier variables and RETURN
// items alike.
func TestAliasCaseResolves(t *testing.T) {
	src := `
C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
    WHERE d.y > 0 AND FORALL mv IN m MV.y > d.y AND EXISTS e IN m E.x > D.x
    RETURN (u.t, d.x, U.x)`
	r := compileSrc(t, src)
	if acts := feed(t, r, Mouse(MouseDown, 0, 5, 0)); !acts.Filtered {
		t.Fatalf("d.y > 0 should filter a down at y=0: %+v", acts)
	}
	feed(t, r, Mouse(MouseDown, 1, 5, 10))
	feed(t, r, Mouse(MouseMove, 2, 8, 20))
	acts := feed(t, r, Mouse(MouseUp, 3, 9, 30))
	if !acts.Committed || len(acts.Rows) != 1 || !acts.Rows[0].Equal(intRow(3, 5, 9)) {
		t.Fatalf("up: %+v", acts)
	}
	feed(t, r, Mouse(MouseDown, 10, 5, 10))
	if acts := feed(t, r, Mouse(MouseMove, 11, 8, 10)); !acts.Aborted {
		t.Fatalf("MV.y > d.y fails at y=10 and should abort: %+v", acts)
	}
}

// TestUnresolvableColumnsFail: a reference that names an attribute the
// event lacks, an alias not bound yet, or no alias at all fails the Feed
// with "unknown column", in every place an event expression appears. The
// row an expression reads is filled before it runs, so the reference fails
// even where AND would have short-circuited past it.
func TestUnresolvableColumnsFail(t *testing.T) {
	down, move := Mouse(MouseDown, 0, 5, 10), Mouse(MouseMove, 1, 6, 20)
	cases := []struct {
		name, where, ret string
		stream           []Event
		want             string
	}{
		{"filter missing attr", "WHERE D.z > 0", "D.t", []Event{down}, "unknown column D.z"},
		{"filter short-circuit", "WHERE (D.x < 0 AND D.z > 0)", "D.t", []Event{down}, "unknown column D.z"},
		{"forall missing attr", "WHERE FORALL m IN M m.z > 0", "D.t", []Event{down, move}, "unknown column m.z"},
		{"exists missing attr", "WHERE EXISTS m IN M m.z > 0", "D.t", []Event{down, move}, "unknown column m.z"},
		{"return missing attr", "", "D.z", []Event{down}, "unknown column D.z"},
		{"forall unbound alias", "WHERE FORALL m IN M m.y > U.y", "D.t", []Event{down, move}, "unknown column U.y"},
		{"exists unbound alias", "WHERE EXISTS m IN M m.y > U.y", "D.t", []Event{down, move}, "unknown column U.y"},
		{"return bare column", "", "D.t, x", []Event{down}, "unknown column x"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := compileSrc(t, `C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U `+c.where+` RETURN (`+c.ret+`)`)
			var err error
			for _, ev := range c.stream {
				if _, err = r.Feed(ev); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestAttributeCaseResolves: event attributes, t included, match without
// regard to case in a plain filter, a FORALL and RETURN, as every other
// DeVIL column reference does; an attribute that no case matches is still
// an unknown column.
func TestAttributeCaseResolves(t *testing.T) {
	const pattern = `C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U `
	upper := compileSrc(t, pattern+`
    WHERE D.Y > 5 AND FORALL m IN M m.Y > D.Y
    RETURN (D.T, D.X, D.Y), (M.T, M.X, M.Y)`)
	lower := compileSrc(t, pattern+`
    WHERE D.y > 5 AND FORALL m IN M m.y > D.y
    RETURN (D.t, D.x, D.y), (M.t, M.x, M.y)`)
	stream := []Event{
		Mouse(MouseDown, 0, 5, 3), // filtered: y <= 5
		Mouse(MouseDown, 1, 5, 10),
		Mouse(MouseMove, 2, 6, 20),
		Mouse(MouseUp, 3, 7, 30), // commits
		Mouse(MouseDown, 4, 5, 10),
		Mouse(MouseMove, 5, 6, 8), // aborts: 8 <= 10
	}
	var filtered, rows, committed, aborted int
	for _, ev := range stream {
		got, want := feed(t, upper, ev), feed(t, lower, ev)
		if got.Filtered != want.Filtered || got.Began != want.Began ||
			got.Committed != want.Committed || got.Aborted != want.Aborted || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: upper-case %+v, lower-case %+v", ev, got, want)
		}
		for i := range got.Rows {
			if !got.Rows[i].Equal(want.Rows[i]) {
				t.Fatalf("%s: row %d upper-case %v, lower-case %v", ev, i, got.Rows[i], want.Rows[i])
			}
		}
		filtered += b2i(got.Filtered)
		rows += len(got.Rows)
		committed += b2i(got.Committed)
		aborted += b2i(got.Aborted)
	}
	if filtered != 1 || rows != 3 || committed != 1 || aborted != 1 {
		t.Fatalf("filtered %d, rows %d, committed %d, aborted %d; want 1, 3, 1, 1", filtered, rows, committed, aborted)
	}
	r := compileSrc(t, pattern+`WHERE D.Z > 0 RETURN (D.T)`)
	if _, err := r.Feed(Mouse(MouseDown, 0, 5, 10)); err == nil || !strings.Contains(err.Error(), "unknown column D.Z") {
		t.Fatalf("D.Z: got %v, want unknown column D.Z", err)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
