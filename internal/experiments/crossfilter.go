// Package experiments holds the paper's workloads: the DeVIL programs,
// engine constructors and event streams of the crossfilter (Figure 1),
// linked brushing (Figure 2, DeVIL 3 vs 4), the join-based IVM, top-k and
// cube crossfilters, and the drivers that print Figures 1, 2, 6 and 7 and
// the §3.3 streaming numbers. The examples, cmd/dvms-serve, cmd/sdss-mock,
// the server tests, the parity walls and bench/ all build on it.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Result is one regenerated experiment artifact: the rows or series the
// paper reports, as text.
type Result struct {
	ID     string
	Title  string
	Output string
}

// CrossfilterDims lists the five Figure 1 charts: sum(revenue) grouped by
// each dimension.
var CrossfilterDims = []string{"region", "year", "month", "weekday", "segment"}

// BuildCrossfilterProgram generates the Figure 1 DeVIL program over n
// synthetic TPC-H-like order lines: five group-by-sum charts linked by a
// crossfilter selection on the year chart. The year chart lays years out at
// known pixel positions (YearAxis) so a mouse drag over it selects a year
// range, exactly the orange box of Figure 1.
func BuildCrossfilterProgram(n int, seed int64) string {
	rows := workload.Sales(n, seed)
	var b strings.Builder
	b.WriteString(workload.SalesDDL + "\n")
	b.WriteString(workload.SalesInserts(rows))
	b.WriteString(`
CREATE TABLE YearAxis (year int, x int);
INSERT INTO YearAxis VALUES (1995, 40), (1996, 120), (1997, 200), (1998, 280);

C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);

-- The crossfilter selection: years whose axis position falls inside the
-- dragged box. Empty C selects nothing (no filter applied).
selected_years =
  SELECT ya.year
  FROM YearAxis AS ya
  WHERE ya.x >= (SELECT min(x) FROM C)
    AND ya.x <= (SELECT max(x + dx) FROM C);
`)
	// Unfiltered (gray) and filtered (green) aggregates per chart. When no
	// selection is active the filtered partition equals the full data.
	for _, dim := range CrossfilterDims {
		fmt.Fprintf(&b, `
TOTALS_%[1]s = SELECT %[1]s, sum(revenue) AS total FROM Sales GROUP BY %[1]s;
FILT_%[1]s = SELECT %[1]s, sum(revenue) AS total FROM Sales
  WHERE year IN selected_years OR (SELECT count(*) FROM selected_years) = 0
  GROUP BY %[1]s;
`, dim)
	}
	// Render the region chart as bars: gray full-height, green filtered
	// overlay — the partition encoding of Figure 1. Bars are ordered by a
	// self-join rank (count of regions at or before this one).
	b.WriteString(`
RANKED_region =
  SELECT a.region AS region, a.total AS total, count(*) AS rk
  FROM TOTALS_region AS a, TOTALS_region AS b
  WHERE b.region <= a.region
  GROUP BY a.region, a.total;
RANKED_filt =
  SELECT a.region AS region, a.total AS total, count(*) AS rk
  FROM FILT_region AS a, FILT_region AS b
  WHERE b.region <= a.region
  GROUP BY a.region, a.total;
REGION_BARS =
  SELECT rk * 70 - 60 AS x, 280 - total / 2000 AS y, 30 AS width,
         total / 2000 AS height, 'gray' AS fill
  FROM RANKED_region
  UNION ALL
  SELECT rk * 70 - 60 AS x, 280 - total / 2000 AS y, 30 AS width,
         total / 2000 AS height, 'green' AS fill
  FROM RANKED_filt;
P = render(SELECT x, y, width, height, fill FROM REGION_BARS, 'rect');
`)
	return b.String()
}

// YearSelectionDrag returns the event stream brushing years 1997-1998 on
// the year axis (x 200..280), Figure 1's orange box.
func YearSelectionDrag() events.Stream {
	return events.Stream{
		events.Mouse(events.MouseDown, 0, 195, 40),
		events.Mouse(events.MouseMove, 1, 240, 45),
		events.Mouse(events.MouseMove, 2, 290, 50),
		events.Mouse(events.MouseUp, 3, 290, 50),
	}
}

// NewCrossfilterEngine loads the Figure 1 program.
func NewCrossfilterEngine(n int, seed int64) (*core.Engine, error) {
	e := core.New(core.Config{Width: 400, Height: 300})
	if err := e.LoadProgram(BuildCrossfilterProgram(n, seed)); err != nil {
		return nil, err
	}
	return e, nil
}

// Fig1Crossfilter regenerates Figure 1: the per-chart revenue breakdown
// before and after the interactive year selection, with the green
// (filtered) vs gray (unfiltered) partition per group.
func Fig1Crossfilter(n int, seed int64) (Result, error) {
	e, err := NewCrossfilterEngine(n, seed)
	if err != nil {
		return Result{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — revenue breakdown with crossfilter (%d order lines)\n\n", n)

	dump := func(stage string) error {
		fmt.Fprintf(&b, "-- %s --\n", stage)
		sel, err := e.Relation("selected_years")
		if err != nil {
			return err
		}
		years := make([]string, 0, sel.Len())
		for _, row := range sel.Rows {
			years = append(years, row[0].String())
		}
		if len(years) == 0 {
			fmt.Fprintf(&b, "selection: none (all years)\n")
		} else {
			fmt.Fprintf(&b, "selection: years %s\n", strings.Join(years, ", "))
		}
		for _, dim := range CrossfilterDims {
			totals, err := e.Relation("TOTALS_" + dim)
			if err != nil {
				return err
			}
			filt, err := e.Relation("FILT_" + dim)
			if err != nil {
				return err
			}
			fMap := map[string]relation.Value{}
			for _, row := range filt.Rows {
				fMap[row[0].String()] = row[1]
			}
			t := totals.Clone()
			t.SortDeterministic()
			fmt.Fprintf(&b, "%s:\n", dim)
			for _, row := range t.Rows {
				key := row[0].String()
				total, _ := row[1].AsFloat()
				var filtered float64
				if fv, ok := fMap[key]; ok {
					filtered, _ = fv.AsFloat()
				}
				fmt.Fprintf(&b, "  %-12s total=%-10.0f filtered=%.0f\n", key, total, filtered)
			}
		}
		b.WriteString("\n")
		return nil
	}

	if err := dump("static (no selection)"); err != nil {
		return Result{}, err
	}
	if _, err := e.FeedStream(YearSelectionDrag()); err != nil {
		return Result{}, err
	}
	if err := dump("after selecting years 1997-1998"); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(&b, "region chart (gray = all years, dark = selection):\n%s",
		e.Image().ASCII(8, 12))
	return Result{ID: "fig1", Title: "Revenue breakdown with crossfilter", Output: b.String()}, nil
}
