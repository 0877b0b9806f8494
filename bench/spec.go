package main

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
)

// workload is one traffic mix against one server configuration. The names
// are fixed: BENCHMARK.json and later issues cite them.
type workload struct {
	name    string
	n       int  // base rows
	program bool // generated DeVIL program file instead of the builtin ivm workload
	durable bool // -data-dir + -fsync always, then SIGKILL/restart/resume
	explore bool // every event followed by a frame; ad-hoc queries; undo
	// traceDrags is the fixed timed-phase length of a --trace 1 run. It is a
	// count, not a duration, so that per-event counts repeat exactly at one
	// seed. End-to-end runs are time-based (--seconds).
	traceDrags int
}

var workloads = []workload{
	{name: "brush_cube", n: 1000000, traceDrags: 1000},
	{name: "brush_delta", n: 100000, program: true, traceDrags: 40},
	{name: "brush_durable", n: 200000, durable: true, traceDrags: 1000},
	{name: "explore_mixed", n: 200000, explore: true, traceDrags: 200},
}

const (
	warmupDrags   = 20  // per set-up, each verified against the oracle
	verifyEvery   = 50  // timed drags between oracle checks
	queryEvery    = 4   // explore_mixed: drags between ad-hoc queries
	undoEvery     = 10  // explore_mixed: drags between undos
	resumedDrags  = 100 // brush_durable: drags driven after the resume
	setupsPerRun  = 5   // setup_s and attach_ms are lower quartiles over these
	eventsPerDrag = 7
	// countedSegments is how many segments a phase of a fixed number of
	// drags is cut into; a phase of fixed duration has one per second.
	countedSegments = 10
)

// frameViews are the chart views a client re-reads to redraw: no op ships
// pixels, so five relation reads are one frame.
var frameViews = []string{"FILT_region", "FILT_segment", "FILT_month", "FILT_weekday", "BARS"}

// adhoc is the fixed rotation of explore_mixed's ad-hoc queries, one per
// cost class of the batch executor.
var adhoc = []struct{ class, q string }{
	{"groupby", "SELECT region, sum(revenue) AS total, count(*) AS n FROM Sales GROUP BY region"},
	{"filtered_groupby", "SELECT region, segment, sum(revenue) AS total FROM Sales WHERE month >= 4 AND month <= 6 GROUP BY region, segment"},
	{"filter", "SELECT orderId, revenue FROM Sales WHERE orderId <= 100"},
	{"topn", "SELECT orderId, revenue FROM Sales ORDER BY revenue DESC LIMIT 20"},
}

// metric names one reported number. higher marks the few metrics where a
// larger value is better.
type metric struct {
	name, unit string
	higher     bool
}

// endToEnd is what a client of dvms-serve observes; every workload reports
// every one of them, with --trace 0.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "attach_ms", unit: "ms"},
	{name: "move_rtt_p50_us", unit: "us"},
	{name: "move_rtt_p95_us", unit: "us"},
	{name: "press_rtt_p50_us", unit: "us"},
	{name: "release_rtt_p50_us", unit: "us"},
	{name: "events_per_s", unit: "1/s", higher: true},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer is what --trace 1 reports. The first seven are client-observed.
// Five exist on one workload only, which the driver's contract does not
// allow of an end-to-end metric (0 means "not applicable to this workload");
// the tail and the first drag did not repeat well enough to carry a bound.
var perLayer = []metric{
	{name: "frame_rtt_p50_us", unit: "us"},
	{name: "query_rtt_mean_ms", unit: "ms"},
	{name: "undo_rtt_p50_us", unit: "us"},
	{name: "recovery_s", unit: "s"},
	{name: "resume_ms", unit: "ms"},
	{name: "move_rtt_p99_us", unit: "us"},
	{name: "first_drag_ms", unit: "ms"},

	{name: "serve.wire_gap_us_p50", unit: "us"},

	{name: "protocol.decode_us_p50", unit: "us"},
	{name: "protocol.encode_us_p50", unit: "us"},
	{name: "protocol.encode_relation_us_p50", unit: "us"},
	{name: "protocol.bytes_in_per_event", unit: "B"},
	{name: "protocol.bytes_out_per_event", unit: "B"},
	{name: "protocol.bytes_out_per_frame", unit: "B"},

	{name: "server.feed_us_p50", unit: "us"},
	{name: "server.overhead_us_p50", unit: "us"},
	{name: "server.relation_us_p50", unit: "us"},
	{name: "server.query_ms_mean", unit: "ms"},
	{name: "server.undo_us_p50", unit: "us"},
	{name: "server.attach_ms", unit: "ms"},
	{name: "server.attach_second_ms", unit: "ms"},
	{name: "server.resume_ms_per_kevent", unit: "ms"},
	{name: "server.journal_entries", unit: "count"},
	{name: "server.journal_bytes", unit: "B"},
	{name: "server.shared_bytes", unit: "B"},
	{name: "server.private_bytes_per_session", unit: "B"},

	{name: "events.recognize_us_p50", unit: "us"},

	{name: "core.event_us_mean", unit: "us"},
	{name: "core.commit_us_mean", unit: "us"},
	{name: "core.prepare_ms_total", unit: "ms"},
	{name: "core.fallback_us_mean", unit: "us"},
	{name: "core.full_fallbacks_per_event", unit: "count"},
	{name: "core.view_recomputes_per_event", unit: "count"},
	{name: "core.unaccounted_ratio", unit: "ratio"},
	{name: "core.store_bytes", unit: "B"},
	{name: "core.delta_log_events", unit: "count"},

	{name: "exec.delta_cube_us_mean", unit: "us"},
	{name: "exec.delta_fused_us_mean", unit: "us"},
	{name: "exec.delta_row_us_mean", unit: "us"},
	{name: "exec.cube_hits_per_event", unit: "count", higher: true},
	{name: "exec.fused_applies_per_event", unit: "count"},
	{name: "exec.batch_rows_per_event", unit: "count"},
	{name: "exec.delta_rows_in_per_event", unit: "count"},
	{name: "exec.delta_rows_out_per_event", unit: "count"},
	{name: "exec.row_fallbacks", unit: "count"},
	{name: "exec.cube_builds", unit: "count"},
	{name: "exec.tile_bytes", unit: "B"},
	{name: "exec.query_run_ms_p50.groupby", unit: "ms"},
	{name: "exec.query_run_ms_p50.filtered_groupby", unit: "ms"},
	{name: "exec.query_run_ms_p50.filter", unit: "ms"},
	{name: "exec.query_run_ms_p50.topn", unit: "ms"},

	{name: "render.pass_us_mean", unit: "us"},
	{name: "render.passes_per_event", unit: "count"},
	{name: "render.marks_us_p50", unit: "us"},

	{name: "wal.append_us_mean", unit: "us"},
	{name: "wal.fsync_us_mean", unit: "us"},
	{name: "wal.fsyncs_per_event", unit: "count"},
	{name: "wal.bytes_per_event", unit: "B"},
	{name: "wal.segments", unit: "count"},
	{name: "wal.records_recovered", unit: "count"},
	{name: "wal.recover_ms", unit: "ms"},

	{name: "parser.program_parse_ms", unit: "ms"},
	{name: "parser.query_parse_us_p50", unit: "us"},
	{name: "plan.build_us_p50", unit: "us"},

	{name: "obs.off_speedup", unit: "ratio"},
	{name: "bench.trace_overhead_ratio", unit: "ratio"},
	{name: "bench.accounted_ratio", unit: "ratio", higher: true},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// deltaProgram is brush_delta's DeVIL program: the cube crossfilter with a
// max() added to every FILT_* chart. max is not decomposable, so
// plan.CubeEligibility rejects all four charts and every brush move streams
// the brushed month's joined rows through fused join→aggregate. The text is
// the benchmark's own, so the input is the same at every commit.
const deltaProgram = `
CREATE TABLE Sales (orderId int, region string, segment string, year int, month int, weekday int, revenue int);

CREATE TABLE MonthAxis (month int, x int);
INSERT INTO MonthAxis VALUES
  (1, 40), (2, 60), (3, 80), (4, 100), (5, 120), (6, 140),
  (7, 160), (8, 180), (9, 200), (10, 220), (11, 240), (12, 260);

C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);

selected_months =
  SELECT ma.month AS month FROM MonthAxis AS ma
  WHERE (SELECT count(*) FROM C) = 0
     OR (ma.x >= (SELECT min(x) FROM C) AND ma.x <= (SELECT max(x + dx) FROM C));

FILT_region = SELECT s.region AS grp, sum(s.revenue) AS total, count(*) AS n, max(s.revenue) AS peak
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.region;
FILT_segment = SELECT s.segment AS grp, sum(s.revenue) AS total, count(*) AS n, max(s.revenue) AS peak
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.segment;
FILT_month = SELECT s.month AS grp, sum(s.revenue) AS total, count(*) AS n, max(s.revenue) AS peak
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.month;
FILT_weekday = SELECT s.weekday AS grp, sum(s.revenue) AS total, count(*) AS n, max(s.revenue) AS peak
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.weekday;

CREATE TABLE RegionAxis (region string, x int);
INSERT INTO RegionAxis VALUES ('AMERICA', 10), ('ASIA', 80), ('EUROPE', 150), ('AFRICA', 220), ('MIDEAST', 290);
BARS = SELECT ra.x AS x, 280 - f.total / 3000 AS y, 24 AS width,
       f.total / 3000 AS height, 'green' AS fill
  FROM FILT_region AS f, RegionAxis AS ra
  WHERE f.grp = ra.region;
P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');
`

// programText is the workload's DeVIL program without its data.
func (w *workload) programText() string {
	if w.program {
		return deltaProgram
	}
	return experiments.BuildIVMCrossfilterProgram()
}

// programWithData inlines the rows as 1,000-row INSERT batches, so loading
// it carries the DeVIL parser: the "program load" cold path.
func programWithData(rows []salesRow) string {
	var b strings.Builder
	b.Grow(len(deltaProgram) + 52*len(rows))
	b.WriteString(deltaProgram)
	for i, r := range rows {
		switch {
		case i%1000 == 0 && i > 0:
			b.WriteString(";\nINSERT INTO Sales VALUES\n")
		case i == 0:
			b.WriteString("INSERT INTO Sales VALUES\n")
		default:
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "(%d, '%s', '%s', %d, %d, %d, %d)", r.orderID, r.region, r.segment, r.year, r.month, r.weekday, r.revenue)
	}
	if len(rows) > 0 {
		b.WriteString(";\n")
	}
	return b.String()
}
