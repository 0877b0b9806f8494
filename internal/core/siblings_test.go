package core

// Walls for the sibling-view fan-out (refreshLevel): a crossfilter whose four
// charts all stream through fused join→aggregate, driven through drags,
// undos and a crash-and-recover, must match a full-recompute oracle after
// every event, at GOMAXPROCS 1 (no helper goroutine) and 4; and the spans of
// a fanned-out level must add up to no more than the event took.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/wal/faultfs"
)

// siblingProgram has the shape of the brush_delta benchmark workload: one
// brushed selection over a month axis feeds four FILT_* charts. max() does
// not decompose over cube bins, so no chart is tile-answered and all four
// are streamed siblings of one dependency level.
const siblingProgram = `
CREATE TABLE Sales (orderId int, region string, segment string, month int, weekday int, revenue int);
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
BARS = SELECT ra.x AS x, 280 - f.total / 300 AS y, 24 AS width, f.total / 300 AS height, 'green' AS fill
  FROM FILT_region AS f, RegionAxis AS ra WHERE f.grp = ra.region;
P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');
`

var siblingCharts = []string{"FILT_region", "FILT_segment", "FILT_month", "FILT_weekday"}

// siblingSource is siblingProgram with n seeded Sales rows inlined.
func siblingSource(n int) string {
	regions := []string{"AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDEAST"}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	rng := rand.New(rand.NewSource(3))
	var b strings.Builder
	b.WriteString(siblingProgram)
	b.WriteString("INSERT INTO Sales VALUES\n")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "(%d, '%s', '%s', %d, %d, %d)", i, regions[rng.Intn(len(regions))],
			segments[rng.Intn(len(segments))], 1+rng.Intn(12), rng.Intn(7), 1+rng.Intn(1000))
	}
	b.WriteString(";\n")
	return b.String()
}

func loadSiblings(t *testing.T, src string, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	if err := e.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	return e
}

// siblingDrags is a seeded sequence of horizontal drags across the month axis.
func siblingDrags(seed int64, drags int) []events.Stream {
	rng := rand.New(rand.NewSource(seed))
	out := make([]events.Stream, drags)
	for d := range out {
		t0 := int64(1000 * (d + 1))
		x := int64(30 + rng.Intn(200))
		st := events.Stream{events.Mouse(events.MouseDown, t0, x, 150)}
		for m := 1; m <= 3+rng.Intn(4); m++ {
			x += int64(rng.Intn(61) - 20)
			st = append(st, events.Mouse(events.MouseMove, t0+int64(m), x, 150))
		}
		out[d] = append(st, events.Mouse(events.MouseUp, t0+10, x, 150))
	}
	return out
}

// assertSiblingParity compares every view and the framebuffer of got with
// the oracle's.
func assertSiblingParity(t *testing.T, step string, got, oracle *Engine) {
	t.Helper()
	for _, name := range append([]string{"selected_months", "BARS"}, siblingCharts...) {
		g, err := got.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := oracle.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(g, w) {
			t.Fatalf("%s: %s diverges from the full-recompute oracle\ngot:\n%s\nwant:\n%s", step, name, g, w)
		}
	}
	if !slices.Equal(got.Image().Pix, oracle.Image().Pix) {
		t.Fatalf("%s: framebuffer diverges from the oracle's", step)
	}
}

// assertLevelOrder checks that the delta spans of the latest trace name the
// charts in the level plan's order: a fanned-out level finishes its views in
// topological order, never in the order their applies completed.
func assertLevelOrder(t *testing.T, step string, e *Engine) {
	t.Helper()
	trs := e.Obs().Traces()
	if len(trs) == 0 {
		return
	}
	var want []string
	for _, lv := range e.levels {
		for _, v := range lv {
			if strings.HasPrefix(v.name, "FILT_") {
				want = append(want, v.name)
			}
		}
	}
	var got []string
	for _, sp := range trs[len(trs)-1].Spans {
		if sp.Stage == obs.StageDelta && strings.HasPrefix(sp.View, "FILT_") {
			got = append(got, sp.View)
		}
	}
	if len(got) > 0 && strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s: chart spans in order %v, want %v", step, got, want)
	}
}

// TestSiblingFanOutParity is the fan-out wall: seeded drags, undos and a
// crash followed by WAL recovery, compared with a RecomputeAll oracle after
// every event. At GOMAXPROCS 1 refresh must start no goroutine; at 4 the
// chart level must have fanned out.
func TestSiblingFanOutParity(t *testing.T) {
	src := siblingSource(3000)
	stmts, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var arms *Stats
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := Config{MaxHistory: 8}
			oracle := loadSiblings(t, src, Config{MaxHistory: 8, RecomputeAll: true})
			fs := faultfs.NewMem()
			l, _ := openTestWAL(t, fs, 1<<30)
			e := New(cfg)
			e.AttachWAL(l)
			if err := e.LoadProgram(src); err != nil {
				t.Fatal(err)
			}
			assertSiblingParity(t, "load", e, oracle)
			helpers := 0
			drive := func(phase string, drags []events.Stream) {
				for d, st := range drags {
					for i, ev := range st {
						for _, x := range []*Engine{e, oracle} {
							if _, err := x.FeedEvent(ev); err != nil {
								t.Fatalf("%s drag %d event %d: %v", phase, d, i, err)
							}
						}
						step := fmt.Sprintf("%s drag %d event %d (%s)", phase, d, i, ev.Type)
						assertSiblingParity(t, step, e, oracle)
						assertLevelOrder(t, step, e)
					}
					if d%4 == 3 {
						for _, x := range []*Engine{e, oracle} {
							if err := x.Undo(); err != nil {
								t.Fatalf("%s drag %d: undo: %v", phase, d, err)
							}
						}
						assertSiblingParity(t, fmt.Sprintf("%s undo after drag %d", phase, d), e, oracle)
					}
				}
				helpers += e.helpersStarted
			}
			drive("live", siblingDrags(1, 12))

			// Crash at rest and recover from the log: the recovered engine
			// re-primes its pipelines and must keep fanning out correctly.
			l.Close()
			l2, rec := openTestWAL(t, fs.Clone(), 1<<30)
			defer l2.Close()
			re, err := RecoverEngine(cfg, stmts, rec)
			if err != nil {
				t.Fatal(err)
			}
			e = re
			assertSiblingParity(t, "recovered", e, oracle)
			drive("recovered", siblingDrags(2, 12))

			switch {
			case procs == 1 && helpers != 0:
				t.Fatalf("GOMAXPROCS 1: refresh started %d helper goroutines, want 0", helpers)
			case procs > 1 && helpers == 0:
				t.Fatal("the four streamed charts never fanned out")
			}
			st := e.StatsSnapshot()
			if st.Exec.FusedApplies == 0 || st.Cube.Hits != 0 || st.Exec.RowFallbacks != 0 {
				t.Fatalf("charts left the fused path: %+v", st.Exec)
			}
			// Same traffic, same work: every counter matches across arms.
			if arms == nil {
				arms = &st
			} else if !reflect.DeepEqual(st, *arms) {
				t.Fatalf("counters differ from the GOMAXPROCS 1 arm:\n got %+v\nwant %+v", st, *arms)
			}
		})
	}
}

// TestSiblingSpansConserve is the span wall for fanned-out levels: with
// every event slow (1 ns budget), each trace's spans sum to no more than
// the event's total, the traces where the chart level fanned out to at
// least 90% of theirs, and the four chart spans keep their view names and
// the fused path.
func TestSiblingSpansConserve(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	e := loadSiblings(t, siblingSource(3000), Config{LatencyBudget: time.Nanosecond})
	for d, st := range siblingDrags(5, 6) {
		if _, err := e.FeedStream(st); err != nil {
			t.Fatalf("drag %d: %v", d, err)
		}
	}
	slow := e.Obs().SlowEvents()
	if len(slow) == 0 {
		t.Fatal("1 ns budget recorded no slow events")
	}
	fanned, fannedSpans, fannedTotal := 0, 0.0, 0.0
	for _, tr := range slow {
		var sum float64
		charts := map[string]bool{}
		for _, sp := range tr.Spans {
			sum += sp.DurUS
			if sp.Stage == obs.StageDelta && strings.HasPrefix(sp.View, "FILT_") {
				if sp.Path != obs.PathFused {
					t.Fatalf("trace %d: chart span on path %q, want fused: %+v", tr.ID, sp.Path, sp)
				}
				charts[sp.View] = true
			}
		}
		if sum > tr.TotalUS {
			t.Errorf("trace %d (%s): spans sum to %.1f µs, more than the %.1f µs total: %+v", tr.ID, tr.Event, sum, tr.TotalUS, tr.Spans)
		}
		if len(charts) < len(siblingCharts) {
			// No fanned-out level: a move within one month's band costs
			// ~20 µs, a few of them untimed engine glue.
			continue
		}
		fanned++
		fannedSpans += sum
		fannedTotal += tr.TotalUS
	}
	if fanned == 0 {
		t.Fatalf("no slow trace carries all four chart spans (%d traces)", len(slow))
	}
	// The floor holds over the fanned-out traces together: one trace can
	// lose more than 10% to a GC pause in untimed glue (measured: 95–99%
	// each, with or without -race).
	if fannedSpans < 0.9*fannedTotal {
		t.Errorf("the %d fanned-out traces' spans sum to %.1f µs, under 90%% of their %.1f µs total", fanned, fannedSpans, fannedTotal)
	}
	if e.helpersStarted == 0 {
		t.Fatal("the chart level never fanned out")
	}
}
