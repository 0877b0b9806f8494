package experiments

// The incremental top-k workload: the paper's most common chart shape —
// "top N bars by measure" — expressed as ORDER BY … LIMIT k views over the
// crossfilter base. The executor maintains an order-statistic tree per
// sorted view, so a one-row change to a top-10 chart ships ~2 delta rows.
// The parity walls drive it two ways: *brush* (a month-axis drag that shifts
// the filtered top-k's input by ~1/12 of the data per event) and *tick*
// (single-row inserts straddling the k-th boundary, TopKTickRow).

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
)

// TopKK is the prefix length of the experiment's leaderboard charts.
const TopKK = 10

// BuildTopKProgram returns the DeVIL program of the top-k crossfilter:
// the shared crossfilter base (Sales, month axis, drag recognizer,
// selected_months), a global top-k leaderboard, a selection-filtered top-k,
// rank views derived from each, and side-by-side bar charts. Every view
// below selected_months is delta-safe, including the ORDER BY+LIMIT pair.
func BuildTopKProgram(k int) string {
	var b strings.Builder
	b.WriteString(crossfilterPrelude)
	fmt.Fprintf(&b, `
-- Global leaderboard: top %[1]d order lines by revenue, ties broken on the
-- full tuple (deterministic across recomputes and deltas).
TOPALL = SELECT s.orderId AS oid, s.revenue AS rev
  FROM Sales AS s
  ORDER BY rev DESC, oid
  LIMIT %[1]d;

-- Selection-filtered leaderboard: same chart, restricted to the brushed
-- months through the delta-safe equi join.
TOPSEL = SELECT s.orderId AS oid, s.revenue AS rev
  FROM Sales AS s, selected_months AS m
  WHERE s.month = m.month
  ORDER BY rev DESC, oid
  LIMIT %[1]d;

-- Ranks via non-equi self joins over the k-row prefixes (cheap: k x k).
RANKED_all = SELECT a.oid AS oid, a.rev AS rev, count(*) AS rk
  FROM TOPALL AS a, TOPALL AS b
  WHERE b.rev > a.rev OR (b.rev = a.rev AND b.oid <= a.oid)
  GROUP BY a.oid, a.rev;
RANKED_sel = SELECT a.oid AS oid, a.rev AS rev, count(*) AS rk
  FROM TOPSEL AS a, TOPSEL AS b
  WHERE b.rev > a.rev OR (b.rev = a.rev AND b.oid <= a.oid)
  GROUP BY a.oid, a.rev;

-- Two non-overlapping bands: global bars on top, selection bars below, so
-- pixel output is independent of draw order within a band.
BARS =
  SELECT rk * 24 - 20 AS x, 120 - rev / 20 AS y, 16 AS width,
         rev / 20 AS height, 'gray' AS fill
  FROM RANKED_all
  UNION ALL
  SELECT rk * 24 - 20 AS x, 270 - rev / 20 AS y, 16 AS width,
         rev / 20 AS height, 'green' AS fill
  FROM RANKED_sel;
P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');
`, k)
	return b.String()
}

// NewTopKEngine loads the top-k crossfilter over n synthetic order lines.
func NewTopKEngine(n int, seed int64, cfg core.Config) (*core.Engine, error) {
	e := core.New(cfg)
	if err := e.LoadProgram(BuildTopKProgram(TopKK)); err != nil {
		return nil, err
	}
	if err := LoadIVMSales(e, n, seed); err != nil {
		return nil, err
	}
	e.Commit()
	return e, nil
}

// TopKTickRow builds the i-th live-feed row. Odd ticks carry a revenue far
// above the workload ceiling (monotonically increasing, so each one lands
// at rank 1 and evicts the current k-th); even ticks carry revenue 1 and
// never enter a leaderboard — together they exercise both sides of the
// boundary while churning the selection-filtered chart's join too.
func TopKTickRow(base, i int) relation.Tuple {
	rev := int64(1)
	if i%2 == 1 {
		rev = int64(100000 + i)
	}
	return relation.Tuple{
		relation.Int(int64(base + i + 1)),
		relation.String("EUROPE"),
		relation.String("BUILDING"),
		relation.Int(1997),
		relation.Int(int64(1 + i%12)),
		relation.Int(int64(i % 7)),
		relation.Int(rev),
	}
}
