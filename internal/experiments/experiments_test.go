package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFig1CrossfilterShape(t *testing.T) {
	r, err := Fig1Crossfilter(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Output, "selection: none") {
		t.Fatalf("missing static stage:\n%s", r.Output)
	}
	if !strings.Contains(r.Output, "selection: years 1997, 1998") {
		t.Fatalf("year selection missing:\n%s", r.Output)
	}
	for _, dim := range CrossfilterDims {
		if !strings.Contains(r.Output, dim+":") {
			t.Fatalf("chart %s missing", dim)
		}
	}
}

func TestCrossfilterFilteredSumsShrink(t *testing.T) {
	e, err := NewCrossfilterEngine(500, 5)
	if err != nil {
		t.Fatal(err)
	}
	totalBefore := sumColumn(t, e, "FILT_region", "total")
	if _, err := e.FeedStream(YearSelectionDrag()); err != nil {
		t.Fatal(err)
	}
	sel, _ := e.Relation("selected_years")
	if sel.Len() != 2 {
		t.Fatalf("selected years = %d, want 2\n%s", sel.Len(), sel)
	}
	totalAfter := sumColumn(t, e, "FILT_region", "total")
	if totalAfter >= totalBefore {
		t.Fatalf("filtered sum (%v) should shrink after selection (%v)", totalAfter, totalBefore)
	}
	// Unfiltered totals unchanged.
	full := sumColumn(t, e, "TOTALS_region", "total")
	if full != totalBefore {
		t.Fatalf("unfiltered totals changed: %v vs %v", full, totalBefore)
	}
}

func sumColumn(t *testing.T, e *core.Engine, rel, col string) float64 {
	t.Helper()
	r, err := e.Relation(rel)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := r.Column(col)
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, v := range vals {
		f, _ := v.AsFloat()
		s += f
	}
	return s
}

func TestFig2Experiment(t *testing.T) {
	r, err := Fig2LinkedBrush(60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Output, "step 0 (static): 0 selected") {
		t.Fatalf("static step wrong:\n%s", r.Output)
	}
	if !strings.Contains(r.Output, "step 2 (roll back): 0 selected") {
		t.Fatalf("rollback step wrong:\n%s", r.Output)
	}
}

func TestDeVIL4Comparison(t *testing.T) {
	r, err := DeVIL4TraceVsJoin(80, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Output, "DeVIL 3") || !strings.Contains(r.Output, "DeVIL 4") {
		t.Fatalf("output:\n%s", r.Output)
	}
	// Both selections must agree (same seed, same drag).
	e3, err := NewBrushingEngine(80, 3, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e4, err := NewTraceEngine(80, 3, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*core.Engine{e3, e4} {
		if _, err := e.FeedStream(BrushDrag(0, 100, 50, 250, 200)); err != nil {
			t.Fatal(err)
		}
	}
	sel, _ := e3.Relation("selected")
	b, _ := e4.Relation("B")
	if sel.Len() != b.Len() {
		t.Fatalf("DeVIL 3 selected %d, DeVIL 4 traced %d", sel.Len(), b.Len())
	}
	if sel.Len() == 0 {
		t.Fatal("drag should select something")
	}
}

func TestFig6And7Experiments(t *testing.T) {
	r6, err := Fig6(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r6.Output, "RangeSlider") {
		t.Fatalf("fig6 output:\n%s", r6.Output)
	}
	r7, err := Fig7(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"original", "simplicity", "coverage"} {
		if !strings.Contains(r7.Output, frag) {
			t.Fatalf("fig7 missing %q:\n%s", frag, r7.Output)
		}
	}
}

func TestStreamExperiment(t *testing.T) {
	r, err := StreamExperiment(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"intent model", "greedy-utility", "request-response"} {
		if !strings.Contains(r.Output, frag) {
			t.Fatalf("missing %q:\n%s", frag, r.Output)
		}
	}
}
