package experiments

// The incremental view maintenance (IVM) workload: a crossfilter expressed
// with joins instead of IN-subqueries, so the whole chart chain —
// join → aggregate → rank → bars → render — is delta-safe and a brush event
// flows through the stateful pipelines as a delta proportional to the
// selection change, never rescanning the base data. It is the program the
// parity suite uses to exercise the delta path end to end, and the one
// bench/ serves over a socket and checks against its oracle.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/relation"
	"repro/internal/workload"
)

// IVMDims are the grouped charts of the join-based crossfilter.
var IVMDims = []string{"region", "segment", "month", "weekday"}

// crossfilterPrelude is the shared base of the join-driven workloads (IVM
// and top-k): the Sales table, the month axis, the drag recognizer, and the
// month-selection view the brush drives.
const crossfilterPrelude = `
CREATE TABLE Sales (orderId int, region string, segment string, year int, month int, weekday int, revenue int);

CREATE TABLE MonthAxis (month int, x int);
INSERT INTO MonthAxis VALUES
  (1, 40), (2, 60), (3, 80), (4, 100), (5, 120), (6, 140),
  (7, 160), (8, 180), (9, 200), (10, 220), (11, 240), (12, 260);

C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);

-- The selection is tiny (≤ 12 months) and reads C through scalar
-- subqueries, so it recomputes fully per event; its *diff* is what feeds
-- the join pipelines below. An empty C selects every month.
selected_months =
  SELECT ma.month AS month FROM MonthAxis AS ma
  WHERE (SELECT count(*) FROM C) = 0
     OR (ma.x >= (SELECT min(x) FROM C) AND ma.x <= (SELECT max(x + dx) FROM C));
`

// BuildIVMCrossfilterProgram returns the DeVIL program of the join-based
// crossfilter. Sales starts empty — load data with LoadIVMSales so million-
// row runs skip the text parser. Revenue is integral, which keeps
// incremental sums bit-identical to recomputed ones (integer arithmetic is
// order-independent; float sums are not).
func BuildIVMCrossfilterProgram() string {
	var b strings.Builder
	b.WriteString(crossfilterPrelude)
	// One filtered aggregate per chart: Sales ⋈ selected_months, grouped.
	// Delta-safe end to end: equi hash join + incremental SUM/COUNT.
	for _, dim := range IVMDims {
		fmt.Fprintf(&b, `
FILT_%[1]s = SELECT s.%[1]s AS grp, sum(s.revenue) AS total, count(*) AS n
  FROM Sales AS s, selected_months AS m
  WHERE s.month = m.month
  GROUP BY s.%[1]s;
`, dim)
	}
	// Rank the region chart with a non-equi self join (exercises the
	// cross-join delta rule) and render side-by-side bars: all-years gray
	// next to selection-colored — non-overlapping, so pixel output is
	// independent of row order.
	b.WriteString(`
TOTALS_region = SELECT s.region AS grp, sum(s.revenue) AS total
  FROM Sales AS s GROUP BY s.region;
RANKED_all =
  SELECT a.grp AS grp, a.total AS total, count(*) AS rk
  FROM TOTALS_region AS a, TOTALS_region AS b
  WHERE b.grp <= a.grp
  GROUP BY a.grp, a.total;
RANKED_sel =
  SELECT a.grp AS grp, a.total AS total, count(*) AS rk
  FROM FILT_region AS a, FILT_region AS b
  WHERE b.grp <= a.grp
  GROUP BY a.grp, a.total;
BARS =
  SELECT rk * 70 - 60 AS x, 280 - total / 3000 AS y, 24 AS width,
         total / 3000 AS height, 'gray' AS fill
  FROM RANKED_all
  UNION ALL
  SELECT rk * 70 - 32 AS x, 280 - total / 3000 AS y, 24 AS width,
         total / 3000 AS height, 'green' AS fill
  FROM RANKED_sel;
P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');
`)
	return b.String()
}

// IVMSalesTuples synthesizes n order lines as engine tuples (the Sales
// schema of the crossfilter prelude). Shared by the single-tenant loaders
// and the session server's ingestion path.
func IVMSalesTuples(n int, seed int64) []relation.Tuple {
	rows := workload.Sales(n, seed)
	tuples := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		tuples[i] = relation.Tuple{
			relation.Int(int64(r.OrderID)),
			relation.String(r.Region),
			relation.String(r.Segment),
			relation.Int(int64(r.Year)),
			relation.Int(int64(r.Month)),
			relation.Int(int64(r.Weekday)),
			relation.Int(int64(math.Round(r.Revenue))),
		}
	}
	return tuples
}

// LoadIVMSales bulk-loads n synthetic order lines into the engine's Sales
// table through the host API (InsertRows), bypassing the DeVIL parser so
// million-row benchmarks spend their time in the engine, not the lexer.
func LoadIVMSales(e *core.Engine, n int, seed int64) error {
	return e.InsertRows("Sales", IVMSalesTuples(n, seed))
}

// NewIVMEngine loads the join-based crossfilter over n rows.
func NewIVMEngine(n int, seed int64, cfg core.Config) (*core.Engine, error) {
	e := core.New(cfg)
	if err := e.LoadProgram(BuildIVMCrossfilterProgram()); err != nil {
		return nil, err
	}
	if err := LoadIVMSales(e, n, seed); err != nil {
		return nil, err
	}
	e.Commit()
	return e, nil
}

// IVMBrushPhases returns the three phases of one drag over the month axis:
// open (mouse down just left of the axis, then a move covering month 1),
// steady (`steps` moves, each extending the brush right by exactly one
// month bucket), and close (the release). The steady phase is the
// steady-state crossfilter workload: each move adds one month (≈ 1/12 of
// the data) to the selection, so incremental per-event work is proportional
// to that slice while a full recompute rescans everything. The open
// transition legitimately carries data-sized deltas (the selection goes
// from "everything" — empty C — to "month 1 only") and is reported
// separately. The compound table accumulates max(x+dx) over the whole drag,
// so a brush can only grow within one interaction; steps beyond month 12
// change nothing (and exercise the empty-delta short circuit).
func IVMBrushPhases(steps int) (open, steady, close events.Stream) {
	const x0 = 35 // just left of the first month bucket (month m sits at x=20+20m)
	open = events.Stream{
		events.Mouse(events.MouseDown, 0, x0, 40),
		events.Mouse(events.MouseMove, 1, 45, 45), // right edge inside month 1
	}
	t := int64(1)
	for k := 1; k <= steps; k++ {
		t++
		steady = append(steady, events.Mouse(events.MouseMove, t, 45+int64(20*k), 45))
	}
	close = events.Stream{events.Mouse(events.MouseUp, t+1, 45+int64(20*steps), 45)}
	return open, steady, close
}

// IVMBrushStream concatenates the phases into one drag (used by the parity
// suite and warm-ups).
func IVMBrushStream(steps int) events.Stream {
	open, steady, close := IVMBrushPhases(steps)
	s := append(events.Stream{}, open...)
	s = append(s, steady...)
	return append(s, close...)
}
