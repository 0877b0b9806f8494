package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/relation"
)

// Provenance mid-drag. In DeVIL 3, `selected` scans SPLOT_POINTS@vnow-1:
// during a drag that is the scatterplot as it stood when the drag began,
// not the live one, which already colours the selection red and so orders
// its rows differently. Lineage, Deconstruct and FORWARD TRACE must map
// each selected product through that lagged version to its one Sales row.

// midDrags runs three drags over the 300-product DeVIL 3 program and calls
// check while each is open, before its MOUSE_UP, with the selection, Sales
// and the productId column of each.
func midDrags(t *testing.T, check func(e *core.Engine, label string, sel, sales *relation.Relation, selID, salesID int)) {
	t.Helper()
	e, err := experiments.NewBrushingEngine(300, 1, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for d, rect := range [][4]int64{
		{40, 40, 200, 160},
		{150, 60, 330, 220},
		{60, 100, 240, 270},
	} {
		drag := experiments.BrushDrag(int64(100*d), rect[0], rect[1], rect[2], rect[3])
		if _, err := e.FeedStream(drag[:len(drag)-1]); err != nil {
			t.Fatal(err)
		}
		sel, err := e.Relation("selected")
		if err != nil {
			t.Fatal(err)
		}
		sales, err := e.Relation("Sales")
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("drag %d", d)
		if sel.Len() < 10 {
			t.Fatalf("%s: %d rows selected, want a sizeable selection", label, sel.Len())
		}
		check(e, label, sel, sales, colIndex(t, sel.Schema, "", "productId"), colIndex(t, sales.Schema, "", "productId"))
		if _, err := e.FeedStream(drag[len(drag)-1:]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLineageFollowsLaggedVersionMidDrag(t *testing.T) {
	midDrags(t, func(e *core.Engine, label string, sel, sales *relation.Relation, selID, salesID int) {
		rows := make([]int, sel.Len())
		for i := range rows {
			rows[i] = i
		}
		lin, err := e.Lineage("selected", rows, "Sales")
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range lin {
			if len(src) != 1 {
				t.Fatalf("%s: selected row %d (productId %v) has %d Sales rows %v, want 1",
					label, i, sel.Rows[i][selID], len(src), src)
			}
			if got, want := sales.Rows[src[0]][salesID], sel.Rows[i][selID]; !got.Equal(want) {
				t.Fatalf("%s: selected productId %v traces to Sales productId %v", label, want, got)
			}
		}
	})
}

func TestDeconstructFollowsLaggedVersionMidDrag(t *testing.T) {
	midDrags(t, func(e *core.Engine, label string, sel, _ *relation.Relation, _, _ int) {
		data, err := e.Deconstruct("selected", "Sales")
		if err != nil {
			t.Fatal(err)
		}
		if data.Len() != sel.Len() {
			t.Fatalf("%s: deconstructed %d rows for %d selected rows", label, data.Len(), sel.Len())
		}
		markID := colIndex(t, data.Schema, "selected", "productId")
		baseID := colIndex(t, data.Schema, "Sales", "productId")
		for _, row := range data.Rows {
			if !row[markID].Equal(row[baseID]) {
				t.Fatalf("%s: deconstruction pairs productId %v with Sales productId %v", label, row[markID], row[baseID])
			}
		}
	})
}

func TestForwardTraceFollowsLaggedVersionMidDrag(t *testing.T) {
	n := 0
	midDrags(t, func(e *core.Engine, label string, sel, _ *relation.Relation, selID, _ int) {
		n++
		id := sel.Rows[sel.Len()/2][selID]
		name := fmt.Sprintf("FWD%d", n)
		if err := e.Exec(fmt.Sprintf("%s = FORWARD TRACE FROM Sales WHERE productId = %v TO selected;", name, id)); err != nil {
			t.Fatal(err)
		}
		fwd, err := e.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		if fwd.Len() != 1 || !fwd.Rows[0][colIndex(t, fwd.Schema, "", "productId")].Equal(id) {
			t.Fatalf("%s: FORWARD TRACE of productId %v to selected gave\n%s", label, id, fwd)
		}
	})
}

func colIndex(t *testing.T, s relation.Schema, qual, name string) int {
	t.Helper()
	i := s.Index(qual, name)
	if i < 0 {
		t.Fatalf("no column %s.%s in %s", qual, name, s)
	}
	return i
}
